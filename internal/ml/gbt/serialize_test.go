package gbt

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

func trainedModel(t *testing.T) (*Model, [][]float64) {
	t.Helper()
	d := makeDataset(t, 300, 21, func(x []float64) float64 {
		if x[0] > 0 {
			return 3*x[1] + 5
		}
		return -x[1]
	}, 0.1, 3)
	m, err := Train(d, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	probes := make([][]float64, 50)
	for i := range probes {
		probes[i] = []float64{rng.Float64()*10 - 5, rng.Float64()*10 - 5, rng.Float64()*10 - 5}
	}
	return m, probes
}

func TestSaveLoadRoundTrip(t *testing.T) {
	m, probes := trainedModel(t)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumTrees() != m.NumTrees() {
		t.Fatalf("tree count %d vs %d", back.NumTrees(), m.NumTrees())
	}
	for _, p := range probes {
		want, _ := m.Predict(p)
		got, err := back.Predict(p)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("prediction differs after round trip: %g vs %g", got, want)
		}
	}
	// Importances survive (gain is serialized).
	wi := m.Importance()
	gi := back.Importance()
	for k, v := range wi {
		if gi[k] != v {
			t.Errorf("importance %s differs: %g vs %g", k, gi[k], v)
		}
	}
}

// TestSaveLoadBinnedRoundTrip checks histogram-trained models persist
// their provenance: Bins and the per-feature cut points survive the trip,
// and the reloaded forest predicts identically.
func TestSaveLoadBinnedRoundTrip(t *testing.T) {
	d := makeDataset(t, 300, 22, func(x []float64) float64 {
		return x[0]*x[1] + x[2]
	}, 0.1, 3)
	p := DefaultParams()
	p.Bins = 64
	m, err := Train(d, p)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Bins() != m.Bins() {
		t.Errorf("Bins %d after round trip, want %d", back.Bins(), m.Bins())
	}
	if len(back.cuts) != len(m.cuts) {
		t.Fatalf("cut columns %d after round trip, want %d", len(back.cuts), len(m.cuts))
	}
	for f := range m.cuts {
		if len(back.cuts[f]) != len(m.cuts[f]) {
			t.Fatalf("feature %d: %d cuts after round trip, want %d", f, len(back.cuts[f]), len(m.cuts[f]))
		}
		for i := range m.cuts[f] {
			if back.cuts[f][i] != m.cuts[f][i] {
				t.Fatalf("feature %d cut %d differs: %v vs %v", f, i, back.cuts[f][i], m.cuts[f][i])
			}
		}
	}
	for _, row := range d.X {
		want, _ := m.Predict(row)
		got, err := back.Predict(row)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("prediction differs after round trip: %g vs %g", got, want)
		}
	}
}

// TestLoadRejectsBadBins checks the new provenance fields are validated.
func TestLoadRejectsBadBins(t *testing.T) {
	cases := []string{
		`{"version": 1, "base": 1, "names": ["a"], "bins": -1, "trees": [[{"f": -1, "l": -1, "r": -1}]]}`,
		`{"version": 1, "base": 1, "names": ["a"], "bins": 300, "trees": [[{"f": -1, "l": -1, "r": -1}]]}`,
		`{"version": 1, "base": 1, "names": ["a"], "cuts": [[1],[2]], "trees": [[{"f": -1, "l": -1, "r": -1}]]}`,
	}
	for i, c := range cases {
		if _, err := Load(strings.NewReader(c)); !errors.Is(err, ErrBadModel) {
			t.Errorf("case %d: got %v, want ErrBadModel", i, err)
		}
	}
}

func TestSaveUntrained(t *testing.T) {
	var m Model
	if err := m.Save(&bytes.Buffer{}); !errors.Is(err, ErrNotTrained) {
		t.Errorf("got %v, want ErrNotTrained", err)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"not json",
		`{"version": 99, "base": 1, "names": ["a"], "trees": [[{"f": -1}]]}`,
		`{"version": 1, "base": 1, "names": [], "trees": []}`,
		`{"version": 1, "base": 1, "names": ["a"], "trees": []}`,
	}
	for i, c := range cases {
		if _, err := Load(strings.NewReader(c)); !errors.Is(err, ErrBadModel) {
			t.Errorf("case %d: got %v, want ErrBadModel", i, err)
		}
	}
}

func TestLoadRejectsMalformedTrees(t *testing.T) {
	cases := []string{
		// Feature index out of range.
		`{"version": 1, "base": 0, "names": ["a"], "trees": [[{"f": 5, "l": 1, "r": 2}, {"f": -1}, {"f": -1}]]}`,
		// Child index out of range.
		`{"version": 1, "base": 0, "names": ["a"], "trees": [[{"f": 0, "l": 10, "r": 2}, {"f": -1}, {"f": -1}]]}`,
		// Self-referencing node (cycle).
		`{"version": 1, "base": 0, "names": ["a"], "trees": [[{"f": 0, "l": 0, "r": 0}]]}`,
		// Backward reference (cycle across nodes).
		`{"version": 1, "base": 0, "names": ["a"], "trees": [[{"f": 0, "l": 1, "r": 2}, {"f": 0, "l": 0, "r": 2}, {"f": -1}]]}`,
	}
	for i, c := range cases {
		if _, err := Load(strings.NewReader(c)); !errors.Is(err, ErrBadModel) {
			t.Errorf("case %d: got %v, want ErrBadModel", i, err)
		}
	}
}

func TestLoadMinimalValidModel(t *testing.T) {
	payload := `{"version": 1, "base": 2.5, "names": ["a"], "trees": [[{"f": -1, "w": 0.5, "l": -1, "r": -1}]]}`
	m, err := Load(strings.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.Predict([]float64{0})
	if err != nil {
		t.Fatal(err)
	}
	if got != 3.0 {
		t.Errorf("Predict = %g, want base+leaf = 3.0", got)
	}
}

// TestSaveGoldenDigest pins Save's bytes for an exact-trained and a
// 256-bin model. The digests were recorded with the encoding/json
// writer the hand-written codec replaced; any change to the model file
// format or its float/string formatting breaks them. amd64 digests, like
// TestTrainingGoldenDigest: training may fuse multiply-adds elsewhere.
func TestSaveGoldenDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests recorded on amd64")
	}
	exact, _ := trainedModel(t)
	d := makeDataset(t, 300, 22, func(x []float64) float64 {
		return x[0]*x[1] + x[2]
	}, 0.1, 3)
	p := DefaultParams()
	p.Bins = 256
	binned, err := Train(d, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		m    *Model
		want string
	}{
		{"exact", exact, "6fa1459b622ee736eaf6df0d2391a0acdcaf9de4ce951d9dcb5d38b622bd843a"},
		{"bins256", binned, "f51077e06d5b901630b4c662e23d693fcd334ccac50f74103ee84b478d228561"},
	} {
		sum := sha256.Sum256(modelBytes(t, c.m))
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s: Save digest %s, want %s", c.name, got, c.want)
		}
	}
}

// ---- encoding/json oracle ----
//
// jsonNode and jsonModel are the reflection structs Save and Load were
// built on before the hand-written codec replaced them. They stay here
// as the oracle: oracleSave and oracleLoad are the old Save and Load,
// verbatim in behaviour, and the differential tests below pin the codec
// to them.

// jsonNode is the serialized form of one tree node, flattened into an
// array with child indices (index 0 is the root, -1 means no child).
type jsonNode struct {
	Feature   int     `json:"f"`
	Threshold float64 `json:"t,omitempty"`
	Weight    float64 `json:"w,omitempty"`
	Gain      float64 `json:"g,omitempty"`
	Left      int     `json:"l"`
	Right     int     `json:"r"`
}

// jsonModel is the serialized ensemble.
type jsonModel struct {
	Version int          `json:"version"`
	Base    float64      `json:"base"`
	Names   []string     `json:"names"`
	Bins    int          `json:"bins,omitempty"`
	Cuts    [][]float64  `json:"cuts,omitempty"`
	Trees   [][]jsonNode `json:"trees"`
}

func oracleSave(m *Model) ([]byte, error) {
	if len(m.trees) == 0 {
		return nil, ErrNotTrained
	}
	jm := &jsonModel{Version: serializationVersion, Base: m.Base, Names: m.Names, Bins: m.bins, Cuts: m.cuts}
	for ti := range m.trees {
		nodes := m.trees[ti].nodes
		flat := make([]jsonNode, len(nodes))
		for i, n := range nodes {
			if n.feature < 0 {
				flat[i] = jsonNode{Feature: -1, Weight: n.weight, Left: -1, Right: -1}
				continue
			}
			flat[i] = jsonNode{Feature: int(n.feature), Threshold: n.threshold, Gain: n.gain,
				Left: int(n.left), Right: int(n.right)}
		}
		jm.Trees = append(jm.Trees, flat)
	}
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(jm)
	return buf.Bytes(), err
}

func oracleLoad(data []byte) (*Model, error) {
	var jm jsonModel
	if err := json.NewDecoder(bytes.NewReader(data)).Decode(&jm); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadModel, err)
	}
	return oracleFromJSON(&jm)
}

func oracleFromJSON(jm *jsonModel) (*Model, error) {
	if jm.Version != serializationVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadModel, jm.Version)
	}
	if len(jm.Names) == 0 || len(jm.Trees) == 0 {
		return nil, fmt.Errorf("%w: empty model", ErrBadModel)
	}
	if jm.Bins < 0 || jm.Bins > 256 {
		return nil, fmt.Errorf("%w: bins %d out of range", ErrBadModel, jm.Bins)
	}
	if jm.Cuts != nil && len(jm.Cuts) != len(jm.Names) {
		return nil, fmt.Errorf("%w: %d cut-point columns for %d features", ErrBadModel, len(jm.Cuts), len(jm.Names))
	}
	m := &Model{Base: jm.Base, Names: jm.Names, bins: jm.Bins, cuts: jm.Cuts}
	m.buildQuantizer()
	for ti, flat := range jm.Trees {
		if len(flat) == 0 {
			return nil, fmt.Errorf("%w: tree %d: empty tree", ErrBadModel, ti)
		}
		nodes := make([]node, len(flat))
		for i, jn := range flat {
			if jn.Feature < 0 {
				nodes[i] = node{feature: -1, weight: jn.Weight}
				continue
			}
			if jn.Feature >= len(jm.Names) {
				return nil, fmt.Errorf("%w: tree %d: feature %d out of range", ErrBadModel, ti, jn.Feature)
			}
			if jn.Left <= i || jn.Right <= i || jn.Left >= len(flat) || jn.Right >= len(flat) {
				return nil, fmt.Errorf("%w: tree %d: node %d child out of order or range", ErrBadModel, ti, i)
			}
			nodes[i] = node{feature: int32(jn.Feature), threshold: jn.Threshold, gain: jn.Gain,
				left: int32(jn.Left), right: int32(jn.Right)}
		}
		m.trees = append(m.trees, tree{nodes: nodes})
	}
	m.buildFlat()
	return m, nil
}

// oddFloats are the values whose JSON form is easiest to get wrong: both
// zeros, subnormals, both sides of encoding/json's 'f'/'e' switches at
// 1e-6 and 1e21, and the extremes.
var oddFloats = []float64{
	0, math.Copysign(0, -1), 5e-324, -2.5e-310, 1e-6, 9.999999e-7, -1e-7, 1.5e-300,
	1e21, -9.999999999999999e20, 1e20, 123456789.125, 1.0 / 3, math.MaxFloat64, -math.SmallestNonzeroFloat64,
}

// oddNames are feature names exercising every escaping rule: the HTML
// trio, quotes and backslashes, short and long control escapes,
// U+2028/U+2029, multi-byte runes and invalid UTF-8.
var oddNames = []string{
	"a", "<b>", "x&y", `q"uote`, `back\slash`, "tab\tnl\n", "bs\bff\f\x01\x1f",
	" sep ", "µ-edge", "😀", string([]byte{0xff, 'q'}), "A->B", "",
}

func randomFloat(rng *rand.Rand) float64 {
	if rng.Intn(3) == 0 {
		return oddFloats[rng.Intn(len(oddFloats))]
	}
	for {
		if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
			return f
		}
	}
}

// randomModel builds a model of valid shape (forward children, in-range
// features) with adversarial contents: odd floats everywhere, odd names,
// nil and empty cut columns, absent and present bins.
func randomModel(rng *rand.Rand) *Model {
	nf := 1 + rng.Intn(4)
	m := &Model{Base: randomFloat(rng), Names: make([]string, nf)}
	for i := range m.Names {
		m.Names[i] = oddNames[rng.Intn(len(oddNames))]
	}
	if rng.Intn(2) == 0 {
		m.bins = 1 + rng.Intn(256)
	}
	if rng.Intn(2) == 0 {
		m.cuts = make([][]float64, nf)
		for f := range m.cuts {
			switch rng.Intn(3) {
			case 0: // nil column
			case 1:
				m.cuts[f] = []float64{}
			default:
				for k := rng.Intn(6); k >= 0; k-- {
					m.cuts[f] = append(m.cuts[f], randomFloat(rng))
				}
			}
		}
	}
	for ti := 1 + rng.Intn(4); ti > 0; ti-- {
		var nodes []node
		var grow func(depth int) int32
		grow = func(depth int) int32 {
			i := int32(len(nodes))
			if depth == 0 || rng.Intn(3) == 0 {
				nodes = append(nodes, node{feature: -1, weight: randomFloat(rng)})
				return i
			}
			nodes = append(nodes, node{feature: int32(rng.Intn(nf)), threshold: randomFloat(rng), gain: randomFloat(rng)})
			l := grow(depth - 1)
			r := grow(depth - 1)
			nodes[i].left, nodes[i].right = l, r
			return i
		}
		grow(3)
		m.trees = append(m.trees, tree{nodes: nodes})
	}
	m.buildQuantizer()
	m.buildFlat()
	return m
}

// TestSaveMatchesOracle: Save writes the bytes encoding/json wrote, on
// trained models and on adversarial random ones, and fails where it
// failed (non-finite floats, untrained models).
func TestSaveMatchesOracle(t *testing.T) {
	exact, _ := trainedModel(t)
	models := []*Model{exact}
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 300; i++ {
		models = append(models, randomModel(rng))
	}
	for i, m := range models {
		want, err := oracleSave(m)
		if err != nil {
			t.Fatal(err)
		}
		if got := modelBytes(t, m); !bytes.Equal(got, want) {
			t.Fatalf("model %d: Save differs from encoding/json:\n got %q\nwant %q", i, got, want)
		}
	}

	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		m := randomModel(rng)
		m.trees[0].nodes[len(m.trees[0].nodes)-1].weight = bad
		if _, err := oracleSave(m); err == nil {
			t.Fatalf("oracle accepted %v", bad)
		}
		var buf bytes.Buffer
		if err := m.Save(&buf); err == nil || buf.Len() != 0 {
			t.Errorf("Save with a %v weight: err %v, %d bytes written; want an error and no bytes", bad, err, buf.Len())
		}
	}
	if _, err := oracleSave(&Model{}); !errors.Is(err, ErrNotTrained) {
		t.Fatalf("oracle on untrained model: %v", err)
	}
}

// sameModel reports whether two loaded models are identical: deep-equal
// in memory (derived serving forests included) and byte-identical when
// saved, which also tells -0 from 0 in the fields Save always writes.
func sameModel(t *testing.T, got, want *Model) bool {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		return false
	}
	return bytes.Equal(modelBytes(t, got), modelBytes(t, want))
}

// checkLoadAgainstOracle loads data with Load and with the oracle and
// requires the same verdict and, on acceptance, the same model.
func checkLoadAgainstOracle(t *testing.T, data []byte) {
	t.Helper()
	got, err := Load(bytes.NewReader(data))
	want, oerr := oracleLoad(data)
	switch {
	case err == nil && oerr != nil:
		t.Fatalf("Load accepted what encoding/json rejects (%v):\n%q", oerr, data)
	case err != nil && oerr == nil:
		t.Fatalf("Load rejected what encoding/json accepts (%v):\n%q", err, data)
	case err != nil:
		if !errors.Is(err, ErrBadModel) {
			t.Fatalf("Load error %v is not ErrBadModel", err)
		}
	case !sameModel(t, got, want):
		t.Fatalf("Load and encoding/json decode differently:\n%q", data)
	}
}

// TestLoadMatchesOracle: on every file Save writes, on hand-written
// variants in every shape encoding/json accepts (any whitespace, any key
// order, omitted fields, nulls, escapes, exponent forms), and on the
// malformed payloads the reject tests use, Load agrees with the
// encoding/json reader: same verdict, identical model.
func TestLoadMatchesOracle(t *testing.T) {
	exact, _ := trainedModel(t)
	files := [][]byte{modelBytes(t, exact)}
	rng := rand.New(rand.NewSource(16))
	for i := 0; i < 300; i++ {
		files = append(files, modelBytes(t, randomModel(rng)))
	}
	tree := `[{"f":0,"t":0.5,"g":2,"l":1,"r":2},{"f":-1,"w":-1.5,"l":-1,"r":-1},{"f":-1,"w":2.5e-7,"l":-1,"r":-1}]`
	for _, s := range []string{
		`{"version":1,"base":2.5,"names":["a"],"trees":[` + tree + `]}`,
		" \t\r\n{ \"trees\" : [ " + tree + " ] , \"names\" : [ \"a\" ] , \"base\" : -0 , \"version\" : 1 } \n\t ",
		`{"version":1,"base":null,"names":["a"],"bins":null,"cuts":null,"trees":[` + tree + `]}`,
		`{"version":1,"names":["a"],"bins":0,"trees":[[{"f":-1}]]}`,
		`{"version":1,"names":["a"],"trees":[[{"f":null,"t":null,"w":null,"g":null,"l":null,"r":null}]]}`,
		`{"version":1,"names":["a"],"trees":[[{"f":-7,"w":1E2,"l":99999999999999999,"r":-5}]]}`,
		`{"version":1,"names":["a"],"trees":[[{"f":0,"l":1,"r":4294967297},{"f":-1},{"f":-1}]]}`,
		`{"version":1,"names":["a"],"trees":[[{"f":4294967296,"l":1,"r":2},{"f":-1},{"f":-1}]]}`,
		`{"version":1,"names":["a"],"trees":[[{"f":-1,"w":1e-400}]]}`,
		`{"version":1,"names":["a","b"],"bins":4,"cuts":[[0.5,1],null],"trees":[[{"f":-1,"w":0.1}]]}`,
		`{"version":1,"names":["a","b"],"bins":4,"cuts":[[],[null,2]],"trees":[[{"f":-1,"w":0.1}]]}`,
		`{"version":1,"names":["aé😀\ud800x\udc00\/\b\f\n\r\t\"\\"],"trees":[[{"f":-1}]]}`,
		"{\"version\":1,\"names\":[\"\xff\xfe\xed\xa0\x80 <&>\"],\"trees\":[[{\"f\":-1}]]}",
		`{"version":1,"names":[null],"trees":[[{"f":-1}]]}`,
		`{"version":1,"names":["a"],"trees":[[{"f":-1}],[{"f":-1,"w":1}]]}`,
		`null`,
		`{}`,
		`[]`,
		`{"version":1.0,"names":["a"],"trees":[[{"f":-1}]]}`,
		`{"version":1e0,"names":["a"],"trees":[[{"f":-1}]]}`,
		`{"version":"1","names":["a"],"trees":[[{"f":-1}]]}`,
		`{"version":1,"names":["a"],"trees":[[{"f":-1,"w":1e400}]]}`,
		`{"version":1,"names":["a"],"trees":[[{"f":-1,"w":01}]]}`,
		`{"version":1,"names":["a"],"trees":[[{"f":-1,"w":+1}]]}`,
		`{"version":1,"names":["a"],"trees":[[{"f":-1,"w":.5}]]}`,
		`{"version":1,"names":["a"],"trees":[[{"f":-1,"w":1.}]]}`,
		`{"version":1,"names":["a"],"trees":[[{"f":-1,"w":NaN}]]}`,
		`{"version":1,"names":["a"],"trees":[[{"f":-1,"w":"1"}]]}`,
		`{"version":1,"names":["a"],"trees":[[{"f":-1,},]]}`,
		`{"version":1,"names":["a\q"],"trees":[[{"f":-1}]]}`,
		`{"version":1,"names":["a\u12"],"trees":[[{"f":-1}]]}`,
		"{\"version\":1,\"names\":[\"a\x01\"],\"trees\":[[{\"f\":-1}]]}",
		`{"version":1,"names":["a"],"trees":[[null]]}`,
		`{"version":1,"names":["a"],"trees":[null]}`,
		`{"version":1,"names":["a"],"trees":[[]]}`,
		`{"version":1,"names":["a"],"trees":[[{"f":-1}]]`,
		`{"version":1,"names":["a"],"cuts":[],"trees":[[{"f":-1}]]}`,
		`{"version":1,"names":["a"],"bins":257,"trees":[[{"f":-1}]]}`,
		`{"version":1,"names":["a"],"trees":[[{"f":1,"l":1,"r":2},{"f":-1},{"f":-1}]]}`,
		`{"version":1,"names":["a"],"trees":[[{"f":0,"l":1,"r":1},{"f":-1}]]}`,
		`{"version":1,"names":["a"],"trees":[[{"f":0,"l":2,"r":1},{"f":-1},{"f":-1}]]}`,
		`{"version":1,"names":["a"],"trees":{}}`,
		`{"version":1,"names":"a","trees":[[{"f":-1}]]}`,
		`{"version":1,"names":["a"],"trees":[[{"f":-1}]]} `,
		"",
		"   ",
		"nul",
		"\xef\xbb\xbf{}",
	} {
		files = append(files, []byte(s))
	}
	for _, f := range files {
		checkLoadAgainstOracle(t, f)
	}
}

// The three inputs the oracle accepts and Load rejects on purpose, one
// test each. No file this repository writes contains any of them.

func checkNarrowing(t *testing.T, payloads ...string) {
	t.Helper()
	for _, p := range payloads {
		if _, err := oracleLoad([]byte(p)); err != nil {
			t.Fatalf("oracle rejects %q (%v); not a narrowing", p, err)
		}
		if _, err := Load(strings.NewReader(p)); !errors.Is(err, ErrBadModel) {
			t.Errorf("Load(%q) = %v, want ErrBadModel", p, err)
		}
	}
}

// TestLoadRejectsDuplicateKeys: encoding/json lets a repeated key
// overwrite — or, for arrays of structs, merge into — the first.
func TestLoadRejectsDuplicateKeys(t *testing.T) {
	checkNarrowing(t,
		`{"version":1,"version":1,"names":["a"],"trees":[[{"f":-1}]]}`,
		`{"version":1,"names":["a"],"trees":[[{"f":0,"l":1,"r":2},{"f":-1},{"f":-1}]],"trees":[[{"f":-1}]]}`,
		`{"version":1,"names":["a"],"trees":[[{"f":-1,"w":1,"w":2}]]}`,
	)
}

// TestLoadRejectsUnknownKeys: encoding/json skips unknown keys and
// folds case variants (including Unicode folds such as U+017F for "s")
// onto fields.
func TestLoadRejectsUnknownKeys(t *testing.T) {
	checkNarrowing(t,
		`{"version":1,"names":["a"],"trees":[[{"f":-1}]],"extra":{"x":[1,2]}}`,
		`{"Version":1,"names":["a"],"trees":[[{"f":-1}]]}`,
		`{"version":1,"NAMES":["a"],"trees":[[{"f":-1}]]}`,
		`{"version":1,"names":["a"],"trees":[[{"F":-1}]]}`,
		`{"version":1,"name`+"ſ"+`":["a"],"trees":[[{"f":-1}]]}`,
		`{"version":1,"names":["a"],"trees":[[{"f":-1,"x":true}]]}`,
	)
}

// TestLoadRejectsTrailingData: json.Decoder stops after the first value
// and never looks at the rest.
func TestLoadRejectsTrailingData(t *testing.T) {
	checkNarrowing(t,
		`{"version":1,"names":["a"],"trees":[[{"f":-1}]]}x`,
		`{"version":1,"names":["a"],"trees":[[{"f":-1}]]} {"version":2}`,
		`{"version":1,"names":["a"],"trees":[[{"f":-1}]]}]`,
	)
}
