package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"
)

func TestRegistryRoundTrip(t *testing.T) {
	reg := testRegistry(t, 1)
	var buf bytes.Buffer
	if err := WriteRegistry(&buf, reg); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRegistry(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Edges) != 1 || got.Global == nil || len(got.Probes) != 2 {
		t.Fatalf("round-trip shape: %d edges, global=%v, %d probes", len(got.Edges), got.Global != nil, len(got.Probes))
	}
	// Predictions are bit-identical across the round trip.
	x := []float64{0.3, 0.7, 0.1}
	for key, m := range reg.Edges {
		want, _ := m.Predict(x)
		g, _ := got.Edges[key].Predict(x)
		if g != want {
			t.Errorf("edge %s: round-trip prediction %v != %v", key, g, want)
		}
	}
	want, _ := reg.Global.Predict(x)
	g, _ := got.Global.Predict(x)
	if g != want {
		t.Errorf("global: round-trip prediction %v != %v", g, want)
	}
}

// TestRegistryCorruptionGate: tampering with serialized model weights is
// caught by the embedded probes at load — corrupt files never promote.
func TestRegistryCorruptionGate(t *testing.T) {
	reg := testRegistry(t, 1)
	var buf bytes.Buffer
	if err := WriteRegistry(&buf, reg); err != nil {
		t.Fatal(err)
	}

	// Corrupt the global model's base score: structurally valid JSON that
	// still parses, but every prediction shifts — exactly the failure mode
	// the probe gate exists for.
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	global := string(raw["global"])
	idx := strings.Index(global, `"base":`)
	if idx < 0 {
		t.Fatalf("no base field in model payload")
	}
	end := idx + strings.IndexAny(global[idx:], ",}")
	tampered := global[:idx] + `"base":999999` + global[end:]
	raw["global"] = json.RawMessage(tampered)
	mutated, err := json.Marshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadRegistry(bytes.NewReader(mutated)); !errors.Is(err, ErrBadRegistry) {
		t.Fatalf("tampered registry loaded: err=%v, want ErrBadRegistry", err)
	}
}

// readRegistryRejectCases are mutations of a valid registry file's
// top-level members that must each fail to load.
func readRegistryRejectCases() map[string]func(map[string]json.RawMessage) {
	return map[string]func(map[string]json.RawMessage){
		"bad version":  func(r map[string]json.RawMessage) { r["version"] = json.RawMessage("99") },
		"no global":    func(r map[string]json.RawMessage) { delete(r, "global") },
		"no features":  func(r map[string]json.RawMessage) { r["features"] = json.RawMessage("[]") },
		"dup features": func(r map[string]json.RawMessage) { r["features"] = json.RawMessage(`["a","a","c"]`) },
		"no probes":    func(r map[string]json.RawMessage) { r["probes"] = json.RawMessage("[]") },
		"unknown probe edge": func(r map[string]json.RawMessage) {
			r["probes"] = json.RawMessage(`[{"edge":"NO->PE","x":[0,0,0],"want":1}]`)
		},
	}
}

func TestReadRegistryRejects(t *testing.T) {
	good := func() map[string]json.RawMessage {
		var buf bytes.Buffer
		if err := WriteRegistry(&buf, testRegistry(t, 1)); err != nil {
			t.Fatal(err)
		}
		var raw map[string]json.RawMessage
		if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
			t.Fatal(err)
		}
		return raw
	}

	for name, mutate := range readRegistryRejectCases() {
		raw := good()
		mutate(raw)
		data, err := json.Marshal(raw)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ReadRegistry(bytes.NewReader(data)); !errors.Is(err, ErrBadRegistry) {
			t.Errorf("%s: err=%v, want ErrBadRegistry", name, err)
		}
	}

	if _, err := ReadRegistry(strings.NewReader("{garbage")); err == nil {
		t.Error("garbage registry loaded")
	}
}

func TestRegistryLookup(t *testing.T) {
	reg := testRegistry(t, 1)
	m, label := reg.Lookup("S1", "D1")
	if m != reg.Edges["S1->D1"] || label != "edge:S1->D1" {
		t.Errorf("edge lookup: %v %q", m != nil, label)
	}
	m, label = reg.Lookup("S1", "NOPE")
	if m != reg.Global || label != "global" {
		t.Errorf("fallback lookup: %v %q", m != nil, label)
	}
}

func TestRegistryVectorize(t *testing.T) {
	reg := testRegistry(t, 1)
	dst := make([]float64, 3)
	if err := reg.Vectorize(map[string]float64{"c": 2.5, "a": 1}, dst); err != nil {
		t.Fatal(err)
	}
	if dst[0] != 1 || dst[1] != 0 || dst[2] != 2.5 {
		t.Errorf("vectorized %v", dst)
	}
	if err := reg.Vectorize(map[string]float64{"zzz": 1}, dst); err == nil {
		t.Error("unknown feature accepted")
	}
}

// TestValidateTolerance: the probe gate compares relative to want, so
// models with large outputs are not penalized.
func TestValidateTolerance(t *testing.T) {
	reg := testRegistry(t, 1)
	if err := reg.Validate(); err != nil {
		t.Fatalf("valid registry failed probes: %v", err)
	}
	bad := *reg
	bad.Probes = append([]Probe(nil), reg.Probes...)
	bad.Probes[0].Want = reg.Probes[0].Want + math.Max(1, math.Abs(reg.Probes[0].Want))*1e-3
	if err := bad.Validate(); err == nil {
		t.Error("off-by-1e-3 probe passed the default tolerance")
	}
}
