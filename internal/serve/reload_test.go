package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestReloadHammer is the reload-semantics contract test: clients hammer
// /predict while the registry is flipped N times underneath them. Every
// response must be 200 (zero dropped or failed requests across reloads)
// and the generation each client observes must be monotonic.
func TestReloadHammer(t *testing.T) {
	const (
		flips   = 8
		clients = 8
	)
	s, path := newTestServer(t, 1, nil)
	s.Start()
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var (
		stop    atomic.Bool
		total   atomic.Int64
		wg      sync.WaitGroup
		failMu  sync.Mutex
		failure string
	)
	fail := func(format string, args ...any) {
		failMu.Lock()
		if failure == "" {
			failure = fmt.Sprintf(format, args...)
		}
		failMu.Unlock()
		stop.Store(true)
	}

	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastGen int64
			for !stop.Load() {
				resp, body := postPredict(t, ts.URL, goodBody)
				if resp.StatusCode != http.StatusOK {
					fail("non-200 during reload: %d %s", resp.StatusCode, body)
					return
				}
				var pr PredictResponse
				if err := json.Unmarshal(body, &pr); err != nil {
					fail("bad response body: %v", err)
					return
				}
				if pr.Generation < lastGen {
					fail("generation went backwards: %d after %d", pr.Generation, lastGen)
					return
				}
				lastGen = pr.Generation
				total.Add(1)
			}
		}()
	}

	// Flip the registry under load: alternate scales so each generation
	// genuinely predicts differently.
	for i := 0; i < flips; i++ {
		writeRegistryFile(t, path, testRegistry(t, float64(1+i%2)))
		if err := s.Reload(); err != nil {
			t.Errorf("reload %d: %v", i, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()

	if failure != "" {
		t.Fatal(failure)
	}
	if got := s.Generation(); got != flips+1 {
		t.Errorf("final generation %d, want %d", got, flips+1)
	}
	if total.Load() == 0 {
		t.Fatal("no requests completed during the hammer")
	}
	t.Logf("%d requests across %d reloads, all 200", total.Load(), flips)
}

// TestReloadCorruptKeepsServing: a corrupt registry file is rejected at
// reload and the last good registry keeps answering.
func TestReloadCorruptKeepsServing(t *testing.T) {
	s, path := newTestServer(t, 1, nil)
	s.Start()
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if err := os.WriteFile(path, []byte(`{"version":1,"features":["a"]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.Reload(); err == nil {
		t.Fatal("corrupt registry promoted")
	}
	if got := s.Generation(); got != 1 {
		t.Errorf("generation after failed reload: %d, want 1", got)
	}
	if got := s.cfg.Metrics.Counter("serve.reload_failures").Value(); got != 1 {
		t.Errorf("reload_failures %d, want 1", got)
	}
	resp, _ := postPredict(t, ts.URL, goodBody)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("predict after failed reload: %d, want 200", resp.StatusCode)
	}

	// Recovery: a good file promotes on the next reload.
	writeRegistryFile(t, path, testRegistry(t, 2))
	if err := s.Reload(); err != nil {
		t.Fatalf("reload after recovery: %v", err)
	}
	if got := s.Generation(); got != 2 {
		t.Errorf("generation after recovery: %d, want 2", got)
	}

	// Boot, the rejected reload and the promotion are all timed, and the
	// size gauge reports the file last read.
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	for _, want := range []string{"serve_reload_ms_count 3", fmt.Sprintf("serve_registry_bytes %d", fi.Size())} {
		if !strings.Contains(rec.Body.String(), want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}
}

// TestWatcherReloads: the file watcher notices a changed registry file
// and promotes it without a signal.
func TestWatcherReloads(t *testing.T) {
	s, path := newTestServer(t, 1, func(c *Config) {
		c.WatchInterval = 5 * time.Millisecond
	})
	s.Start()
	defer s.Drain()

	reg := testRegistry(t, 3)
	// Ensure a visibly different mtime/size even on coarse filesystems.
	time.Sleep(20 * time.Millisecond)
	writeRegistryFile(t, path, reg)

	deadline := time.Now().Add(5 * time.Second)
	for s.Generation() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("watcher never promoted the new registry")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestReloadStampRace: registry promotions land while reloads are in
// flight. Each load must record the stamp of the file it actually read,
// so after the last promotion the watcher converges on the last file
// written — even when a Reload opened the previous file just before the
// last one was renamed over it. Run under -race.
func TestReloadStampRace(t *testing.T) {
	s, path := newTestServer(t, 1, func(c *Config) { c.WatchInterval = time.Millisecond })
	s.Start()
	defer s.Drain()

	regs := []*Registry{testRegistry(t, 2), testRegistry(t, 3), testRegistry(t, 4)}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = s.Reload()
			}
		}
	}()
	const promotions = 100
	for i := 0; i < promotions; i++ {
		writeRegistryFile(t, path, regs[i%len(regs)])
	}
	close(stop)
	wg.Wait()

	last := regs[(promotions-1)%len(regs)]
	x := []float64{0.3, 0.6, 0.9}
	want, _ := last.Global.Predict(x)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if got, _ := s.Registry().Global.Predict(x); got == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("watcher never converged on the last registry written")
		}
		time.Sleep(time.Millisecond)
	}
}
