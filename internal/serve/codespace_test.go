package serve

import (
	"bytes"
	"context"
	"errors"
	"testing"
)

// TestRegistryVersion1FailsClosed: the code-space era bumped the registry
// format to version 2 (promotion now gates on the quantized path
// reproducing the float path exactly). A version-1 file predates that
// gate and must be refused with ErrBadRegistry — fail closed, keep the
// last good registry serving — never half-loaded.
func TestRegistryVersion1FailsClosed(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteRegistry(&buf, testRegistry(t, 1)); err != nil {
		t.Fatal(err)
	}
	downgraded := bytes.Replace(buf.Bytes(), []byte(`"version":2`), []byte(`"version":1`), 1)
	if bytes.Equal(downgraded, buf.Bytes()) {
		t.Fatal("payload does not declare version 2")
	}
	if _, err := ReadRegistry(bytes.NewReader(downgraded)); !errors.Is(err, ErrBadRegistry) {
		t.Fatalf("version-1 registry: got %v, want ErrBadRegistry", err)
	}
	// The original version-2 payload still loads.
	if _, err := ReadRegistry(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("version-2 registry rejected: %v", err)
	}
}

// TestServeCodeSpaceReloadRequantizes: after a reload the batcher must
// re-quantize admitted requests against the new snapshot's cuts (the
// code-space twin of revectorize), so answers stay bit-identical to the
// new model's float path.
func TestServeCodeSpaceReloadRequantizes(t *testing.T) {
	s, path := newTestServer(t, 1, nil)
	s.Start()
	defer s.Drain()

	req := &PredictRequest{Src: "S1", Dst: "D1", Features: map[string]float64{"a": 0.5, "b": 0.2, "c": 0.9}}
	x := []float64{0.5, 0.2, 0.9}

	for gen, scale := range []float64{1, 2.5, 4} {
		if gen > 0 {
			writeRegistryFile(t, path, testRegistry(t, scale))
			if err := s.Reload(); err != nil {
				t.Fatal(err)
			}
		}
		want, err := s.Registry().Edges["S1->D1"].Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			res, err := s.PredictSync(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			if res.Rate != want {
				t.Fatalf("generation %d request %d: rate %v, want %v", gen+1, i, res.Rate, want)
			}
		}
	}
}

// TestServeManyBatchersDrainCleanly: the sharded-batcher configuration
// (many batchers, small batches, concurrent producers) preserves the
// answer-everything-then-stop drain contract.
func TestServeManyBatchersDrainCleanly(t *testing.T) {
	s, _ := newTestServer(t, 1, func(c *Config) {
		c.Batchers = 8
		c.BatchMax = 4
	})
	s.Start()
	errs := make(chan error, 200)
	for g := 0; g < 8; g++ {
		go func(g int) {
			req := &PredictRequest{Src: "S1", Dst: "D1", Features: map[string]float64{"a": float64(g)}}
			for i := 0; i < 25; i++ {
				_, err := s.PredictSync(context.Background(), req)
				errs <- err
			}
		}(g)
	}
	for i := 0; i < 200; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	if n := s.queueLen(); n != 0 {
		t.Fatalf("%d requests abandoned in queue after drain", n)
	}
}

// TestServeCodeSpaceDefaultBatchers sanity-checks the default sharding:
// an unset Batchers resolves to at least 2 (GOMAXPROCS-capped), so the
// single-batcher serialization point is gone by default.
func TestServeCodeSpaceDefaultBatchers(t *testing.T) {
	var c Config
	c.fillDefaults()
	if c.Batchers < 1 {
		t.Fatalf("default Batchers = %d", c.Batchers)
	}
	if c.Batchers == 1 {
		t.Skip("single-core runner; nothing to assert")
	}
	// Non-default configurations pass through untouched.
	c2 := Config{Batchers: 3}
	c2.fillDefaults()
	if c2.Batchers != 3 {
		t.Fatalf("explicit Batchers rewritten to %d", c2.Batchers)
	}
}
