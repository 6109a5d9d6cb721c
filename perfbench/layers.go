package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"time"

	"repro/internal/features"
	"repro/internal/ml/gbt"
	"repro/internal/serve"
)

// probeReps is how many passes each layer probe makes; it reports the
// median pass.
const probeReps = 3

// kernelBlock is the row block the kernel probe predicts at a time.
const kernelBlock = 64

// nsPer runs f probeReps times under a child span of sp and returns the
// median nanoseconds per unit, f doing units units of work per pass.
func nsPer(sp *span, name string, units int, f func() error) (float64, error) {
	c := sp.child(name)
	defer c.end()
	var per []float64
	for range probeReps {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(units))
	}
	return median(per), nil
}

// probeKernels measures inference on the rows' serving models the way
// the daemon runs it: a model with a code-space forest quantizes each row
// (QuantizeRow) and walks the codes (PredictCodes); a model without one
// (a warm-started stream model) walks the floats (PredictBatch). Rows
// are predicted in blocks of kernelBlock that share a model.
// gbt.float_kernel_ns_per_row times the float walk for every row.
func probeKernels(e *env, sp *span, reg *serve.Registry, rows []rowInput) (quantNS, kernelNS float64, err error) {
	type block struct {
		m     *gbt.Model
		codes [][]uint8
		xs    [][]float64
	}
	models := make([]*gbt.Model, len(rows))
	codes := make([][]uint8, len(rows))
	groups := map[*gbt.Model][]int{}
	coded := 0
	for i, r := range rows {
		models[i], _ = reg.Lookup(r.src, r.dst)
		codes[i] = make([]uint8, len(features.Names))
		groups[models[i]] = append(groups[models[i]], i)
		if models[i].CodeSpace() {
			coded++
		}
	}
	quantNS, err = nsPer(sp, "probe.quantize", len(rows), func() error {
		for i, r := range rows {
			if models[i].CodeSpace() {
				if err := models[i].QuantizeRow(r.x, codes[i]); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	var blocks []block
	for m, idx := range groups {
		for lo := 0; lo < len(idx); lo += kernelBlock {
			b := block{m: m}
			for _, i := range idx[lo:min(lo+kernelBlock, len(idx))] {
				b.codes = append(b.codes, codes[i])
				b.xs = append(b.xs, rows[i].x)
			}
			blocks = append(blocks, b)
		}
	}
	out := make([]float64, kernelBlock)
	kernelNS, err = nsPer(sp, "probe.kernel", len(rows), func() error {
		for _, b := range blocks {
			var err error
			if b.m.CodeSpace() {
				err = b.m.PredictCodes(b.codes, out[:len(b.codes)])
			} else {
				err = b.m.PredictBatch(b.xs, out[:len(b.xs)])
			}
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	floatNS, err := nsPer(sp, "probe.float_kernel", len(rows), func() error {
		for _, b := range blocks {
			if err := b.m.PredictBatch(b.xs, out[:len(b.xs)]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	e.set("dataset.quantize_ns_per_row", quantNS)
	e.set("gbt.kernel_ns_per_row", kernelNS)
	e.set("gbt.float_kernel_ns_per_row", floatNS)
	e.note("probe.code_space_row_share", float64(coded)/float64(len(rows)))
	return quantNS, kernelNS, nil
}

// probeBatchLayers splits the batch front door's per-row cost by
// difference of three entry points, each driven serially by one caller:
// PredictBatchSync (admission, queue, quantize, kernel), the in-process
// Handler() (plus the NDJSON codec) and loopback HTTP (plus the
// transport). Quantize and kernel come from probeCodeSpace.
func probeBatchLayers(ctx context.Context, e *env, sp *span, st *stack, rows []rowInput, bodies [][]byte) error {
	defer sp.end()
	quant, kernel, err := probeKernels(e, sp, st.srv.Registry(), rows)
	if err != nil {
		return err
	}
	n := len(bodies) * batchRows
	batches := make([][]serve.BatchRow, len(bodies))
	for b := range bodies {
		for _, r := range rows[b*batchRows : (b+1)*batchRows] {
			batches[b] = append(batches[b], serve.BatchRow{Src: r.src, Dst: r.dst, X: r.x})
		}
	}
	out := make([]serve.PredictResponse, batchRows)
	syncNS, err := nsPer(sp, "probe.batch_sync", n, func() error {
		for _, rows := range batches {
			if err := st.srv.PredictBatchSync(ctx, rows, out); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	handlerNS, err := nsPer(sp, "probe.batch_handler", n, func() error {
		return driveHandler(st, "/predict/batch", bodies)
	})
	if err != nil {
		return err
	}
	c := newClient()
	defer c.CloseIdleConnections()
	var buf bytes.Buffer
	loopNS, err := nsPer(sp, "probe.batch_loopback", n, func() error {
		for _, body := range bodies {
			if err := post(c, st.url+"/predict/batch", "application/x-ndjson", body, &buf); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	e.set("serve.queue_ns_per_row", syncNS-quant-kernel)
	e.set("serve.codec_ns_per_row", handlerNS-syncNS)
	e.set("serve.http_ns_per_row", loopNS-handlerNS)
	e.note("probe.batch_loopback_ns_per_row", loopNS)
	return nil
}

// probeSingletonLayers is probeBatchLayers for one-row requests, through
// PredictSync and /predict. Both end sp.
func probeSingletonLayers(ctx context.Context, e *env, sp *span, st *stack, rows []rowInput) error {
	defer sp.end()
	quant, kernel, err := probeKernels(e, sp, st.srv.Registry(), rows)
	if err != nil {
		return err
	}
	const n = 4000
	reqs := make([]*serve.PredictRequest, n)
	bodies := make([][]byte, n)
	for i := range reqs {
		r := rows[i%len(rows)]
		fm := make(map[string]float64, len(r.x))
		for j, name := range features.Names {
			fm[name] = r.x[j]
		}
		reqs[i] = &serve.PredictRequest{Src: r.src, Dst: r.dst, Features: fm}
		bodies[i] = r.line
	}
	syncNS, err := nsPer(sp, "probe.single_sync", n, func() error {
		for _, req := range reqs {
			if _, err := st.srv.PredictSync(ctx, req); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	handlerNS, err := nsPer(sp, "probe.single_handler", n, func() error {
		return driveHandler(st, "/predict", bodies)
	})
	if err != nil {
		return err
	}
	c := newClient()
	defer c.CloseIdleConnections()
	var buf bytes.Buffer
	loopNS, err := nsPer(sp, "probe.single_loopback", n, func() error {
		for _, body := range bodies {
			if err := post(c, st.url+"/predict", "application/json", body, &buf); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	e.set("serve.queue_ns_per_req", syncNS-quant-kernel)
	e.set("serve.codec_ns_per_req", handlerNS-syncNS)
	e.set("serve.http_ns_per_req", loopNS-handlerNS)
	e.note("probe.single_loopback_ns_per_req", loopNS)
	return nil
}

// driveHandler posts each body to the daemon's in-process handler.
func driveHandler(st *stack, path string, bodies [][]byte) error {
	h := st.srv.Handler()
	w := &discardWriter{h: http.Header{}}
	for _, body := range bodies {
		req, err := http.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		if err != nil {
			return err
		}
		w.reset()
		h.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			return fmt.Errorf("%s answered HTTP %d", path, w.code)
		}
	}
	return nil
}
