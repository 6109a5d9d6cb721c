package core

// Tests for the worker-pool experiment loops: parallel results must match
// the serial computation exactly, cancellation must be honored promptly,
// and no goroutines may outlive a cancelled call.

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/chaos"
)

// waitForGoroutines polls until the goroutine count drops back to the
// baseline (plus a small slack for runtime helpers) or the deadline
// passes, returning the final count.
func waitForGoroutines(baseline int) int {
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline+2 || time.Now().After(deadline) {
			return n
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestEvaluateEdgesParallelMatchesSerial(t *testing.T) {
	p, edges := smallPipeline(t)
	n := len(edges)
	if n > 3 {
		n = 3
	}
	parallel, err := p.EvaluateEdges(edges[:n])
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		serial, err := p.EvaluateEdge(edges[i])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(parallel[i], serial) {
			t.Errorf("edge %d: parallel result differs from serial:\nparallel: %+v\nserial:   %+v",
				i, parallel[i], serial)
		}
	}
}

func TestExplainEdgesParallelMatchesSerial(t *testing.T) {
	p, edges := smallPipeline(t)
	n := len(edges)
	if n > 3 {
		n = 3
	}
	parallel, err := p.ExplainEdges(edges[:n])
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		serial, err := p.ExplainEdge(edges[i])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(parallel[i], serial) {
			t.Errorf("edge %d: parallel explanation differs from serial:\nparallel: %+v\nserial:   %+v",
				i, parallel[i], serial)
		}
	}
}

func TestAblateParallelMatchesSerial(t *testing.T) {
	p, edges := smallPipeline(t)
	parallel, err := p.Ablate(edges, 2)
	if err != nil {
		t.Fatal(err)
	}
	var serial []AblationRow
	n := len(edges)
	if n > 2 {
		n = 2
	}
	for i := 0; i < n; i++ {
		rows, err := p.ablateEdge(edges[i])
		if err != nil {
			t.Fatal(err)
		}
		serial = append(serial, rows...)
	}
	if !reflect.DeepEqual(parallel, serial) {
		t.Errorf("parallel ablation differs from serial:\nparallel: %+v\nserial:   %+v", parallel, serial)
	}
}

func TestEvaluateEdgesCancelledContext(t *testing.T) {
	p, edges := smallPipeline(t)
	checkCancelledPromptly(t, "evaluation", func(ctx context.Context) error {
		_, err := p.EvaluateEdgesContext(ctx, edges)
		return err
	})
}

func TestExplainEdgesCancelledContext(t *testing.T) {
	p, edges := smallPipeline(t)
	checkCancelledPromptly(t, "explanation", func(ctx context.Context) error {
		_, err := p.ExplainEdgesContext(ctx, edges)
		return err
	})
}

// checkCancelledPromptly runs fit under an already-cancelled context and
// requires context.Canceled, a prompt return and no leaked goroutines.
func checkCancelledPromptly(t *testing.T, what string, fit func(context.Context) error) {
	t.Helper()
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if err := fit(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("cancelled %s took %v, want a prompt return", what, d)
	}
	if after := waitForGoroutines(before); after > before+2 {
		t.Errorf("goroutines leaked: %d before, %d after", before, after)
	}
}

func TestGlobalModelCancelledContext(t *testing.T) {
	p, edges := smallPipeline(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.GlobalModelContext(ctx, edges); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

func TestChaosSweepCancelledPromptlyWithoutLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := tinySweepConfig()
	ccfg := chaos.DefaultConfig(1, cfg.Horizon)
	start := time.Now()
	_, err := ChaosSweep(ctx, cfg, ccfg, []float64{0, 1, 2}, 60, 2)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("cancelled sweep took %v, want a prompt return", d)
	}
	if after := waitForGoroutines(before); after > before+2 {
		t.Errorf("goroutines leaked: %d before, %d after", before, after)
	}
}
