package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"unicode/utf8"

	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/ml/gbt"
	"repro/internal/simulate"
)

// goldenRegistries builds, once per test process, the two registry
// shapes this repository writes in production: the Small-world registry
// `wanperf registry -small` trains (six edge models plus the global
// fallback, 256 bins), and a stream-style global-only registry holding
// a warm-started model with three probes, the way the online refresher
// promotes one.
var goldenRegistries = sync.OnceValues(func() (map[string]*Registry, error) {
	pl, err := core.Run(simulate.SmallConfig())
	if err != nil {
		return nil, err
	}
	pl.GBTBins = 256
	small, err := Build(context.Background(), pl, pl.StudyEdges())
	if err != nil {
		return nil, err
	}

	half := len(pl.Vecs) / 2
	cold, err := features.Dataset(pl.Vecs[:half], false)
	if err != nil {
		return nil, err
	}
	warm, err := features.Dataset(pl.Vecs[half:], false)
	if err != nil {
		return nil, err
	}
	p := gbt.DefaultParams()
	p.Bins = 256
	p.Rounds = 40
	prev, err := gbt.Train(cold, p)
	if err != nil {
		return nil, err
	}
	p.Rounds = 20
	cand, err := gbt.TrainWarm(warm, p, prev)
	if err != nil {
		return nil, err
	}
	stream := &Registry{Features: append([]string(nil), features.Names...), Global: cand}
	for i := 0; i < 3; i++ {
		x := warm.X[i*(warm.Len()/3)]
		want, err := cand.Predict(x)
		if err != nil {
			return nil, err
		}
		stream.Probes = append(stream.Probes, Probe{X: append([]float64(nil), x...), Want: want})
	}
	return map[string]*Registry{"small": small, "stream": stream}, nil
})

func goldenRegistry(t testing.TB, name string) *Registry {
	t.Helper()
	regs, err := goldenRegistries()
	if err != nil {
		t.Fatal(err)
	}
	return regs[name]
}

func registryBytes(t testing.TB, reg *Registry) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteRegistry(&buf, reg); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestWriteRegistryGoldenDigest pins WriteRegistry's bytes for both
// production registry shapes. The digests were recorded with the
// encoding/json writer the hand-written codec replaced (the "small" one
// is also the digest of `wanperf registry -small` output). amd64 only:
// training may fuse multiply-adds on other architectures.
func TestWriteRegistryGoldenDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests recorded on amd64")
	}
	for _, c := range []struct{ name, want string }{
		{"small", "5422b214f83310db92c68184dc8185425930c3accb856bd8100897e0a62a7e4e"},
		{"stream", "3f5ef13566501fa0156651adf73a51aaf35318da73a669abb7a9c5989f7fafce"},
	} {
		sum := sha256.Sum256(registryBytes(t, goldenRegistry(t, c.name)))
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s: registry digest %s, want %s", c.name, got, c.want)
		}
	}
}

// ---- encoding/json oracle ----
//
// oracleRegistryFile is the reflection struct WriteRegistry and
// ReadRegistry were built on before the hand-written codec, kept as the
// oracle. Models stay raw here: gbt's own differential tests pin the
// model payload to its encoding/json oracle, so the registry oracle only
// has to reproduce how the registry frames them.
type oracleRegistryFile struct {
	Version   int                        `json:"version"`
	Features  []string                   `json:"features"`
	Tolerance float64                    `json:"tolerance,omitempty"`
	Global    json.RawMessage            `json:"global"`
	Edges     map[string]json.RawMessage `json:"edges,omitempty"`
	Probes    []Probe                    `json:"probes,omitempty"`
}

// oracleModel and oracleNode mirror gbt's wire structs without
// omitempty, so a decoded payload re-marshals without losing -0 or the
// difference between null and [].
type oracleModel struct {
	Version int            `json:"version"`
	Base    float64        `json:"base"`
	Names   []string       `json:"names"`
	Bins    int            `json:"bins"`
	Cuts    [][]float64    `json:"cuts"`
	Trees   [][]oracleNode `json:"trees"`
}

type oracleNode struct {
	Feature   int     `json:"f"`
	Threshold float64 `json:"t"`
	Weight    float64 `json:"w"`
	Gain      float64 `json:"g"`
	Left      int     `json:"l"`
	Right     int     `json:"r"`
}

func oracleWriteRegistry(r *Registry) ([]byte, error) {
	if err := r.init(); err != nil {
		return nil, err
	}
	raw := func(m *gbt.Model) json.RawMessage {
		var b bytes.Buffer
		if err := m.Save(&b); err != nil {
			panic(err)
		}
		return bytes.TrimSuffix(b.Bytes(), []byte("\n"))
	}
	f := oracleRegistryFile{Version: registryVersion, Features: r.Features, Tolerance: r.Tolerance,
		Global: raw(r.Global), Probes: r.Probes}
	if len(r.Edges) > 0 {
		f.Edges = make(map[string]json.RawMessage, len(r.Edges))
		for k, m := range r.Edges {
			f.Edges[k] = raw(m)
		}
	}
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(&f)
	return buf.Bytes(), err
}

// oracleReadRegistry is the encoding/json reader: json.Decoder over the
// registry, json.Unmarshal per embedded model (what Model.UnmarshalJSON
// did), then the model's validation — reached through gbt.Load on the
// payload re-marshalled losslessly — and the registry's own.
func oracleReadRegistry(data []byte) (*Registry, error) {
	var f oracleRegistryFile
	if err := json.NewDecoder(bytes.NewReader(data)).Decode(&f); err != nil {
		return nil, err
	}
	model := func(raw json.RawMessage) (*gbt.Model, error) {
		if raw == nil || string(raw) == "null" {
			return nil, nil
		}
		var om oracleModel
		if err := json.Unmarshal(raw, &om); err != nil {
			return nil, err
		}
		canon, err := json.Marshal(&om)
		if err != nil {
			return nil, err
		}
		return gbt.Load(bytes.NewReader(canon))
	}
	r := &Registry{Features: f.Features, Tolerance: f.Tolerance, Probes: f.Probes}
	var err error
	if r.Global, err = model(f.Global); err != nil {
		return nil, err
	}
	if f.Edges != nil {
		r.Edges = make(map[string]*gbt.Model, len(f.Edges))
		for k, raw := range f.Edges {
			if r.Edges[k], err = model(raw); err != nil {
				return nil, err
			}
		}
	}
	if f.Version != registryVersion {
		return nil, fmt.Errorf("unsupported version %d", f.Version)
	}
	if err := r.init(); err != nil {
		return nil, err
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return r, nil
}

// shape is the registry schema as the narrowing detector walks it:
// an object with fixed keys, a map with arbitrary keys, or an array.
type shape struct {
	fields map[string]*shape
	mapOf  *shape
	elem   *shape
}

var registryShape = func() *shape {
	leaf := func(keys ...string) map[string]*shape {
		m := map[string]*shape{}
		for _, k := range keys {
			m[k] = nil
		}
		return m
	}
	node := &shape{fields: leaf("f", "t", "w", "g", "l", "r")}
	model := &shape{fields: leaf("version", "base", "names", "bins", "cuts")}
	model.fields["trees"] = &shape{elem: &shape{elem: node}}
	reg := &shape{fields: leaf("version", "features", "tolerance")}
	reg.fields["global"] = model
	reg.fields["edges"] = &shape{mapOf: model}
	reg.fields["probes"] = &shape{elem: &shape{fields: leaf("edge", "x", "want")}}
	return reg
}()

// registryNarrowing names the first of the three documented narrowings
// data contains — a duplicate key, a key outside the schema, or bytes
// after the top-level value — or returns "" if it contains none (or is
// not valid JSON up to the end of its first value).
func registryNarrowing(data []byte) string {
	dec := json.NewDecoder(bytes.NewReader(data))
	var first json.RawMessage
	if err := dec.Decode(&first); err != nil {
		return ""
	}
	tokens := json.NewDecoder(bytes.NewReader(first))
	tokens.UseNumber()
	if found := walkShape(tokens, registryShape); found != "" {
		return found
	}
	if len(bytes.TrimLeft(data[dec.InputOffset():], " \t\r\n")) > 0 {
		return "data after the top-level value"
	}
	return ""
}

func walkShape(dec *json.Decoder, s *shape) string {
	tok, err := dec.Token()
	if err != nil {
		return ""
	}
	found := ""
	note := func(what string) {
		if found == "" {
			found = what
		}
	}
	switch tok {
	case json.Delim('{'):
		seen := map[string]bool{}
		for dec.More() {
			kt, err := dec.Token()
			if err != nil {
				return found
			}
			key := kt.(string)
			if seen[key] {
				note(fmt.Sprintf("duplicate key %q", key))
			}
			seen[key] = true
			var sub *shape
			switch {
			case s != nil && s.fields != nil:
				var ok bool
				if sub, ok = s.fields[key]; !ok {
					note(fmt.Sprintf("unknown key %q", key))
				}
			case s != nil:
				sub = s.mapOf
			}
			note(walkShape(dec, sub))
		}
		_, _ = dec.Token()
	case json.Delim('['):
		var el *shape
		if s != nil {
			el = s.elem
		}
		for dec.More() {
			note(walkShape(dec, el))
		}
		_, _ = dec.Token()
	}
	return found
}

// checkRegistryAgainstOracle holds ReadRegistry to the oracle: whatever
// it accepts, the oracle accepts with an identical registry (deep-equal
// in memory, byte-identical when written back); whatever the oracle
// accepts and it rejects contains a documented narrowing.
func checkRegistryAgainstOracle(t *testing.T, data []byte) {
	t.Helper()
	got, err := ReadRegistry(bytes.NewReader(data))
	want, oerr := oracleReadRegistry(data)
	narrowed := registryNarrowing(data)
	switch {
	case err == nil && narrowed != "":
		t.Fatalf("ReadRegistry accepted an input with %s:\n%.300q", narrowed, data)
	case err == nil && oerr != nil:
		t.Fatalf("ReadRegistry accepted what encoding/json rejects (%v):\n%.300q", oerr, data)
	case err == nil:
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("ReadRegistry and encoding/json decode differently:\n%.300q", data)
		}
		if !bytes.Equal(registryBytes(t, got), registryBytes(t, want)) {
			t.Fatalf("decoded registries write back differently:\n%.300q", data)
		}
	case !errors.Is(err, ErrBadRegistry):
		t.Fatalf("ReadRegistry error %v is not ErrBadRegistry", err)
	case oerr == nil && narrowed == "":
		t.Fatalf("ReadRegistry rejected (%v) what encoding/json accepts, with no documented narrowing:\n%.300q", err, data)
	}
}

// randomRegistry builds a registry whose every string and float is
// adversarial for the encoder: names and edge keys with the HTML trio,
// control characters, U+2028 and invalid UTF-8; -0, subnormal and
// 'e'-form floats; nil and empty probe inputs. Its probes are not
// expected to pass validation — only encoding is under test.
func randomRegistry(t *testing.T, rng *rand.Rand) *Registry {
	t.Helper()
	pool := []string{"a", "<b>", "x&y", `q"uote`, "tab\t", "bs\bff\f\x01", "\u2028", "😀",
		string([]byte{0xff, 'q'}), "A->B", "A-\u003eC", "é"}
	floats := []float64{0, math.Copysign(0, -1), 5e-324, -1e-310, 1e-6, 9.99e-7, 1e21, -9.99e20,
		1.5, 123456.789, math.MaxFloat64}
	rf := func() float64 {
		if rng.Intn(2) == 0 {
			return floats[rng.Intn(len(floats))]
		}
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
	}
	// Feature names are valid UTF-8: the models' copies of them are
	// written from JSON text, where invalid bytes read back as U+FFFD.
	perm := rng.Perm(len(pool))
	feats := make([]string, 0, 3)
	for _, i := range perm {
		if utf8.ValidString(pool[i]) && len(feats) < cap(feats) {
			feats = append(feats, pool[i])
		}
	}
	feats = feats[:1+rng.Intn(3)]
	names, err := json.Marshal(feats)
	if err != nil {
		t.Fatal(err)
	}
	num := func() string { return strconv.FormatFloat(rf(), 'g', -1, 64) }
	model := func() *gbt.Model {
		src := `{"version":1,"base":` + num() + `,"names":` + string(names) +
			`,"trees":[[{"f":0,"t":` + num() + `,"g":` + num() + `,"l":1,"r":2},{"f":-1,"w":` + num() +
			`,"l":-1,"r":-1},{"f":-1,"w":` + num() + `,"l":-1,"r":-1}]]}`
		m, err := gbt.Load(strings.NewReader(src))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	reg := &Registry{Features: feats, Global: model()}
	switch rng.Intn(3) {
	case 0:
		reg.Tolerance = rf()
		if reg.Tolerance < 0 {
			reg.Tolerance = -reg.Tolerance
		}
	case 1:
		reg.Tolerance = math.Copysign(0, -1)
	}
	if rng.Intn(3) > 0 {
		reg.Edges = map[string]*gbt.Model{}
		for i := rng.Intn(4); i > 0; i-- {
			reg.Edges[pool[rng.Intn(len(pool))]+"->"+pool[rng.Intn(len(pool))]] = model()
		}
	}
	for i := rng.Intn(4); i > 0; i-- {
		p := Probe{Want: rf()}
		if rng.Intn(2) == 0 {
			p.Edge = pool[rng.Intn(len(pool))]
		}
		switch rng.Intn(4) {
		case 0: // nil inputs
		case 1:
			p.X = []float64{}
		default:
			for range feats {
				p.X = append(p.X, rf())
			}
		}
		reg.Probes = append(reg.Probes, p)
	}
	return reg
}

// TestWriteRegistryMatchesOracle: WriteRegistry writes the bytes
// encoding/json wrote, on the production registries and on adversarial
// random ones, and fails where it failed.
func TestWriteRegistryMatchesOracle(t *testing.T) {
	regs := []*Registry{goldenRegistry(t, "small"), goldenRegistry(t, "stream"), testRegistry(t, 1)}
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 200; i++ {
		regs = append(regs, randomRegistry(t, rng))
	}
	for i, reg := range regs {
		want, err := oracleWriteRegistry(reg)
		if err != nil {
			t.Fatal(err)
		}
		if got := registryBytes(t, reg); !bytes.Equal(got, want) {
			t.Fatalf("registry %d: WriteRegistry differs from encoding/json:\n got %.400q\nwant %.400q", i, got, want)
		}
	}

	for _, bad := range []func(*Registry){
		func(r *Registry) { r.Tolerance = math.Inf(1) },
		func(r *Registry) { r.Tolerance = math.NaN() },
		func(r *Registry) { r.Probes[0].Want = math.NaN() },
		func(r *Registry) { r.Probes[1].X[2] = math.Inf(-1) },
	} {
		reg := testRegistry(t, 1)
		bad(reg)
		if _, err := oracleWriteRegistry(reg); err == nil {
			t.Fatal("oracle accepted a non-finite value")
		}
		var buf bytes.Buffer
		if err := WriteRegistry(&buf, reg); err == nil || buf.Len() != 0 {
			t.Errorf("non-finite value: err %v, %d bytes written; want an error and no bytes", err, buf.Len())
		}
	}
}

// registryVariants rewrites a valid registry file into the shapes
// encoding/json accepts and no writer here produces — re-indented, keys
// reordered, unescaped HTML, explicit nulls — plus the malformed
// payloads TestReadRegistryRejects builds.
func registryVariants(t testing.TB, file []byte) [][]byte {
	t.Helper()
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(file, &raw); err != nil {
		t.Fatal(err)
	}
	remarshal := func(mutate func(map[string]json.RawMessage)) []byte {
		m := make(map[string]json.RawMessage, len(raw))
		for k, v := range raw {
			m[k] = v
		}
		mutate(m)
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetEscapeHTML(false)
		if err := enc.Encode(m); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	var indented bytes.Buffer
	if err := json.Indent(&indented, file, "\r\n", "\t "); err != nil {
		t.Fatal(err)
	}
	out := [][]byte{
		file,
		indented.Bytes(),
		remarshal(func(map[string]json.RawMessage) {}),
		remarshal(func(r map[string]json.RawMessage) { r["tolerance"] = json.RawMessage("null") }),
		remarshal(func(r map[string]json.RawMessage) { r["tolerance"] = json.RawMessage("1e-300") }),
		remarshal(func(r map[string]json.RawMessage) { r["edges"] = json.RawMessage("null") }),
		remarshal(func(r map[string]json.RawMessage) { r["edges"] = json.RawMessage("{}") }),
		remarshal(func(r map[string]json.RawMessage) { r["global"] = json.RawMessage("null") }),
		remarshal(func(r map[string]json.RawMessage) { r["version"] = json.RawMessage("2.0") }),
		remarshal(func(r map[string]json.RawMessage) { r["version"] = json.RawMessage("-0") }),
		remarshal(func(r map[string]json.RawMessage) { r["features"] = json.RawMessage("null") }),
		remarshal(func(r map[string]json.RawMessage) { r["probes"] = json.RawMessage("[null]") }),
		remarshal(func(r map[string]json.RawMessage) { r["probes"] = json.RawMessage(`{"x":[]}`) }),
		remarshal(func(r map[string]json.RawMessage) { r["global"] = json.RawMessage(`"model"`) }),
		remarshal(func(r map[string]json.RawMessage) { r["global"] = json.RawMessage(`[]`) }),
		[]byte(`{"version":2,"features":["a"]}`),
		[]byte("null"),
		[]byte("{garbage"),
		[]byte(""),
	}
	for _, mutate := range readRegistryRejectCases() {
		out = append(out, remarshal(mutate))
	}
	return out
}

// TestReadRegistryMatchesOracle: on every registry this repository
// writes, on the variants of them encoding/json accepts, and on the
// rejection payloads, ReadRegistry agrees with the encoding/json reader.
// (The Small-world file, at 1.7 MB, gets only the re-indent variant.)
func TestReadRegistryMatchesOracle(t *testing.T) {
	files := [][]byte{registryBytes(t, goldenRegistry(t, "small"))}
	var indented bytes.Buffer
	if err := json.Indent(&indented, files[0], "", "  "); err != nil {
		t.Fatal(err)
	}
	files = append(files, indented.Bytes())
	for _, reg := range []*Registry{goldenRegistry(t, "stream"), testRegistry(t, 1)} {
		files = append(files, registryVariants(t, registryBytes(t, reg))...)
	}
	rng := rand.New(rand.NewSource(16))
	for i := 0; i < 100; i++ {
		files = append(files, registryBytes(t, randomRegistry(t, rng)))
	}
	for _, f := range files {
		checkRegistryAgainstOracle(t, f)
	}
}

// FuzzRegistryDecode holds ReadRegistry to the encoding/json oracle on
// arbitrary input: an accepted input is accepted by the oracle with an
// identical registry, and an input the oracle accepts but ReadRegistry
// rejects carries one of the three documented narrowings.
func FuzzRegistryDecode(f *testing.F) {
	regs, err := goldenRegistries()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(registryBytes(f, regs["small"]))
	for _, reg := range []*Registry{regs["stream"], testRegistry(f, 1)} {
		for _, v := range registryVariants(f, registryBytes(f, reg)) {
			f.Add(v)
		}
	}
	// The model payloads gbt's reject tests use, framed as the global
	// model of an otherwise valid registry.
	for _, m := range []string{
		`{"version": 1, "base": 1, "names": ["a"], "bins": -1, "trees": [[{"f": -1, "l": -1, "r": -1}]]}`,
		`{"version": 1, "base": 1, "names": ["a"], "bins": 300, "trees": [[{"f": -1, "l": -1, "r": -1}]]}`,
		`{"version": 1, "base": 1, "names": ["a"], "cuts": [[1],[2]], "trees": [[{"f": -1, "l": -1, "r": -1}]]}`,
		`{"version": 99, "base": 1, "names": ["a"], "trees": [[{"f": -1}]]}`,
		`{"version": 1, "base": 0, "names": ["a"], "trees": [[{"f": 5, "l": 1, "r": 2}, {"f": -1}, {"f": -1}]]}`,
		`{"version": 1, "base": 0, "names": ["a"], "trees": [[{"f": 0, "l": 0, "r": 0}]]}`,
		`{"version": 1, "base": 0, "names": ["a"], "trees": [[{"f": 0, "l": 10, "r": 2}, {"f": -1}, {"f": -1}]]}`,
		`{"version": 1, "base": 0, "names": ["a"], "trees": [[{"f": 0, "l": 1, "r": 2}, {"f": 0, "l": 0, "r": 2}, {"f": -1}]]}`,
		`{"version": 1, "base": 1, "names": [], "trees": []}`,
		`{"version": 1, "base": 1, "names": ["a"], "trees": []}`,
		`not json`,
		``,
		`{"version": 1, "base": 2.5, "names": ["a"], "trees": [[{"f": -1, "w": 0.5, "l": -1, "r": -1}]]}`,
	} {
		f.Add([]byte(`{"version":2,"features":["a"],"global":` + m + `,"probes":[{"x":[0],"want":3}]}`))
	}
	f.Fuzz(checkRegistryAgainstOracle)
}

// The three inputs the oracle accepts and ReadRegistry rejects on
// purpose, one test each. No file this repository writes contains any
// of them.

func checkRegistryNarrowing(t *testing.T, mutate func(string) string) {
	t.Helper()
	file := strings.TrimSuffix(string(registryBytes(t, testRegistry(t, 1))), "\n")
	data := []byte(mutate(file))
	if _, err := oracleReadRegistry(data); err != nil {
		t.Fatalf("oracle rejects the input (%v); not a narrowing", err)
	}
	if registryNarrowing(data) == "" {
		t.Fatal("narrowing detector misses the input")
	}
	if _, err := ReadRegistry(bytes.NewReader(data)); !errors.Is(err, ErrBadRegistry) {
		t.Errorf("ReadRegistry = %v, want ErrBadRegistry", err)
	}
}

func TestReadRegistryRejectsDuplicateKeys(t *testing.T) {
	checkRegistryNarrowing(t, func(s string) string { return `{"version":2,` + s[1:] })
	checkRegistryNarrowing(t, func(s string) string {
		return strings.Replace(s, `"edges":{`, `"edges":{"S1-\u003eD1":null,`, 1)
	})
	checkRegistryNarrowing(t, func(s string) string { return strings.Replace(s, `"want":`, `"want":0,"want":`, 1) })
}

func TestReadRegistryRejectsUnknownKeys(t *testing.T) {
	checkRegistryNarrowing(t, func(s string) string { return `{"comment":"x",` + s[1:] })
	checkRegistryNarrowing(t, func(s string) string { return strings.Replace(s, `"features"`, `"Features"`, 1) })
	checkRegistryNarrowing(t, func(s string) string { return strings.Replace(s, `"want"`, `"WANT"`, 1) })
	checkRegistryNarrowing(t, func(s string) string { return strings.Replace(s, `"base"`, `"baſe"`, 1) })
}

func TestReadRegistryRejectsTrailingData(t *testing.T) {
	checkRegistryNarrowing(t, func(s string) string { return s + "\n}" })
	checkRegistryNarrowing(t, func(s string) string { return s + s })
}
