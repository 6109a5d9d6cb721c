package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// fingerprint identifies the host and the run a result came from. Two
// results are comparable only when they ran on the same kind of host
// with the same inputs; the commit is what a comparison compares, so it
// is recorded but may differ.
type fingerprint struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
	Dirty      bool   `json:"dirty"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
}

func takeFingerprint(workload string, seed int64, seconds int, trace bool) fingerprint {
	fp := fingerprint{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		Commit:     "unknown",
		Workload:   workload,
		Seed:       seed,
		Seconds:    seconds,
		Trace:      trace,
	}
	// The go command stamps the repository's revision into the binary
	// when it builds inside a git checkout; elsewhere it stays unknown.
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				fp.Commit = s.Value
			case "vcs.modified":
				fp.Dirty = s.Value == "true"
			}
		}
	}
	return fp
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// checkComparable returns nil when results a and b may be compared: same host
// shape, toolchain, workload, seed, run length and tracing mode.
func (a fingerprint) checkComparable(b fingerprint) error {
	a.Commit, a.Dirty = b.Commit, b.Dirty
	if a != b {
		x, _ := json.Marshal(a)
		y, _ := json.Marshal(b)
		return fmt.Errorf("fingerprints differ:\n  %s\n  %s", x, y)
	}
	return nil
}
