// Package serve is the prediction daemon behind `wanperf serve`: a
// long-running HTTP/JSON service that loads the per-edge + global model
// registry and answers "how fast will this transfer go?" at production
// throughput. It is engineered for failure first:
//
//   - Hot model reload. The registry lives behind an atomic pointer; a
//     SIGHUP or a registry-file change loads and *validates* the new file
//     off to the side, then promotes it with one atomic swap. In-flight
//     requests finish on the snapshot they started with, so zero requests
//     are dropped across a reload, and a corrupt file fails validation
//     and leaves the last good registry serving.
//
//   - Backpressure. Requests pass through a bounded admission queue into
//     a batcher that coalesces them into the flat SoA forest's batch
//     inference. When the queue is full, or a request has waited past its
//     deadline, the daemon sheds it with 429 + Retry-After instead of
//     letting latency collapse for everyone.
//
//   - Graceful lifecycle. /healthz liveness, /readyz readiness that flips
//     during startup and drain, SIGTERM drain with a hard deadline, and
//     per-request panic isolation.
//
//   - Observability. Every decision above is counted in an obs.Registry
//     exposed in Prometheus text format on /metrics, including per-edge
//     latency histograms.
package serve

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"repro/internal/jsonwire"
	"repro/internal/ml/gbt"
)

// registryVersion is the registry file format version. Version 2 is the
// code-space era: promotion additionally replays every probe through the
// quantized (uint8) inference path when the probed model carries one,
// requiring EXACT agreement with the float path — so a registry can
// never serve a code-space forest that diverges from its float twin.
// Version-1 files fail closed (ErrBadRegistry): they predate that gate,
// and the deployment story is retrain-and-rewrite, not silent upgrade.
const registryVersion = 2

// defaultTolerance bounds the relative error a probe may show before the
// registry is rejected. Predictions are deterministic and JSON round-trips
// float64 exactly, so a healthy file reproduces probes bit-for-bit; any
// slack here only exists to keep the gate robust if a future trainer
// writes probes from a slightly different code path.
const defaultTolerance = 1e-9

// ErrBadRegistry is returned when a registry file is malformed, fails
// structural validation, or fails its sanity probes.
var ErrBadRegistry = errors.New("serve: bad registry")

// Probe is one golden-tolerance sanity prediction embedded in the
// registry: model input X must predict Want (within the registry's
// tolerance) or the file is rejected at load. Probes are the promotion
// gate that keeps a corrupt or truncated model file from ever serving.
type Probe struct {
	Edge string    `json:"edge,omitempty"` // "" probes the global model
	X    []float64 `json:"x"`
	Want float64   `json:"want"`
}

// Registry is one immutable serving snapshot: the per-edge models, the
// global fallback, and the feature layout every request is vectorized
// against. The server swaps whole registries atomically and never mutates
// a published one, so any number of batches may read it concurrently.
type Registry struct {
	Features  []string              // request feature layout, in column order
	Global    *gbt.Model            // fallback for edges without their own model
	Edges     map[string]*gbt.Model // keyed "SRC->DST"
	Probes    []Probe
	Tolerance float64

	// Generation is stamped by the server when the registry is promoted
	// (1 for the boot registry, +1 per successful reload). It is not part
	// of the file: a registry file does not know when it will be adopted.
	Generation int64 `json:"-"`

	nameIdx map[string]int // feature name -> column, built at load

	// srcIdx is the allocation-free edge index built at load: src ->
	// dst -> precomputed entry. Lookup through it costs two map hits and
	// zero string concatenation, which is what lets the admission path
	// resolve a serving model per row without allocating the "SRC->DST"
	// key the Edges map is keyed by.
	srcIdx map[string]map[string]*edgeEntry
	global *edgeEntry
}

// edgeEntry is one resolved serving assignment, precomputed at registry
// load so the request path never rebuilds strings: the canonical key
// halves (for interning src/dst out of a transient request buffer), the
// response label, its JSON-escaped wire form for the pooled response
// encoder, and the per-edge latency metric name.
type edgeEntry struct {
	m        *gbt.Model
	src, dst string
	label    string // "edge:SRC->DST", or "global" for the fallback entry
	jlabel   []byte // label as a JSON string literal, escaped exactly like encoding/json
	latKey   string // `serve.latency_ms{edge="SRC->DST"}`; "" on the fallback
	isGlobal bool
}

// The on-disk form is one JSON object:
//
//	{"version":2,"features":[...],"tolerance":T,"global":MODEL,
//	 "edges":{"SRC->DST":MODEL,...},"probes":[{"edge":E,"x":[...],"want":W},...]}
//
// with tolerance, edges and probe edge omitted when empty, edge keys in
// sorted order, and each MODEL the payload gbt.Save writes — so every
// structural guarantee of the model format (forward child indices,
// in-range features) holds for registry-embedded models too. The codec
// is hand-written over jsonwire, one pass each way, and writes exactly
// the bytes encoding/json wrote; the tests keep encoding/json as their
// oracle. The reader accepts whatever encoding/json accepted, except
// that duplicate keys, keys outside the schema (case variants included)
// and bytes after the top-level value fail closed.

// registryKeys and probeKeys are the members a registry and a probe may
// carry, in wire order.
var (
	registryKeys = []string{"version", "features", "tolerance", "global", "edges", "probes"}
	probeKeys    = []string{"edge", "x", "want"}
)

// WriteRegistry writes the registry in the versioned file format, in one
// Write.
func WriteRegistry(w io.Writer, r *Registry) error {
	if err := r.init(); err != nil {
		return err
	}
	var e jsonwire.Encoder
	e.Raw(`{"version":`)
	e.Int(registryVersion)
	e.Raw(`,"features":`)
	e.Strings(r.Features)
	e.OmitZero(`,"tolerance":`, r.Tolerance)
	e.Raw(`,"global":`)
	r.Global.EncodeJSON(&e)
	if len(r.Edges) > 0 {
		keys := make([]string, 0, len(r.Edges))
		for k := range r.Edges {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		e.Raw(`,"edges":{`)
		for i, k := range keys {
			if i > 0 {
				e.Raw(",")
			}
			e.String(k)
			e.Raw(":")
			r.Edges[k].EncodeJSON(&e)
		}
		e.Raw("}")
	}
	if len(r.Probes) > 0 {
		e.Raw(`,"probes":[`)
		for i, p := range r.Probes {
			if i > 0 {
				e.Raw(",")
			}
			e.Raw("{")
			if p.Edge != "" {
				e.Raw(`"edge":`)
				e.String(p.Edge)
				e.Raw(",")
			}
			e.Raw(`"x":`)
			e.Floats(p.X)
			e.Raw(`,"want":`)
			e.Float(p.Want)
			e.Raw("}")
		}
		e.Raw("]")
	}
	e.Raw("}")
	return e.WriteLine(w)
}

// ReadRegistry parses and fully validates a registry: structure, feature
// layouts, and every sanity probe. It never returns a registry that is
// unsafe to promote.
func ReadRegistry(rd io.Reader) (*Registry, error) {
	data, err := io.ReadAll(rd)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRegistry, err)
	}
	return decodeRegistry(data)
}

// LoadRegistryFile reads and validates the registry at path.
func LoadRegistryFile(path string) (*Registry, error) {
	r, _, err := loadRegistryFile(path)
	return r, err
}

// loadRegistryFile reads and validates the registry at path, and also
// returns the stamp of the file it opened, taken from the open handle
// before reading: the stamp describes the bytes decoded even if a new
// file is renamed over path meanwhile. A file that cannot be opened
// has the zero stamp.
func loadRegistryFile(path string) (*Registry, registryStamp, error) {
	file, err := os.Open(path)
	if err != nil {
		return nil, registryStamp{}, err
	}
	defer file.Close()
	fi, err := file.Stat()
	if err != nil {
		return nil, registryStamp{}, err
	}
	stamp := registryStamp{mtime: fi.ModTime(), size: fi.Size()}
	buf := bytes.NewBuffer(make([]byte, 0, fi.Size()+bytes.MinRead))
	if _, err := buf.ReadFrom(file); err != nil {
		return nil, stamp, fmt.Errorf("registry %s: %w", path, err)
	}
	r, err := decodeRegistry(buf.Bytes())
	if err != nil {
		return nil, stamp, fmt.Errorf("registry %s: %w", path, err)
	}
	return r, stamp, nil
}

// decodeRegistry decodes data in one pass and validates the result.
func decodeRegistry(data []byte) (*Registry, error) {
	d := jsonwire.NewDecoder(data)
	r := &Registry{}
	version := 0
	if !d.Null() {
		var seen uint32
		for more := d.Begin('{'); more; more = d.Next('}') {
			switch d.Member(registryKeys, &seen) {
			case 0:
				version = d.Int()
			case 1:
				r.Features = d.Strings()
			case 2:
				r.Tolerance = d.Float()
			case 3:
				r.Global = decodeModel(d)
			case 4:
				r.Edges = decodeEdges(d)
			case 5:
				r.Probes = decodeProbes(d)
			}
		}
	}
	if err := d.End(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRegistry, err)
	}
	if version != registryVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadRegistry, version)
	}
	if err := r.init(); err != nil {
		return nil, err
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return r, nil
}

// decodeModel reads an embedded model; null is a missing model, which
// init rejects.
func decodeModel(d *jsonwire.Decoder) *gbt.Model {
	if d.Null() {
		return nil
	}
	return gbt.DecodeJSON(d)
}

func decodeEdges(d *jsonwire.Decoder) map[string]*gbt.Model {
	if d.Null() {
		return nil
	}
	edges := map[string]*gbt.Model{}
	for more := d.Begin('{'); more; more = d.Next('}') {
		key := string(d.Key())
		if _, dup := edges[key]; dup {
			d.Fail(fmt.Errorf("duplicate edge %q", key))
			break
		}
		edges[key] = decodeModel(d)
	}
	return edges
}

func decodeProbes(d *jsonwire.Decoder) []Probe {
	if d.Null() {
		return nil
	}
	probes := []Probe{}
	for more := d.Begin('['); more; more = d.Next(']') {
		var p Probe
		if !d.Null() {
			var seen uint32
			for more := d.Begin('{'); more; more = d.Next('}') {
				switch d.Member(probeKeys, &seen) {
				case 0:
					p.Edge = d.String()
				case 1:
					p.X = d.Floats()
				case 2:
					p.Want = d.Float()
				}
			}
		}
		probes = append(probes, p)
	}
	return probes
}

// init checks the registry's structure and builds the feature index.
func (r *Registry) init() error {
	if len(r.Features) == 0 {
		return fmt.Errorf("%w: no features", ErrBadRegistry)
	}
	if r.Global == nil {
		return fmt.Errorf("%w: no global model", ErrBadRegistry)
	}
	if r.Tolerance < 0 {
		return fmt.Errorf("%w: negative tolerance", ErrBadRegistry)
	}
	r.nameIdx = make(map[string]int, len(r.Features))
	for i, name := range r.Features {
		if name == "" {
			return fmt.Errorf("%w: empty feature name at column %d", ErrBadRegistry, i)
		}
		if _, dup := r.nameIdx[name]; dup {
			return fmt.Errorf("%w: duplicate feature %q", ErrBadRegistry, name)
		}
		r.nameIdx[name] = i
	}
	if err := r.checkModel("global", r.Global); err != nil {
		return err
	}
	r.global = &edgeEntry{m: r.Global, label: "global", jlabel: jsonwire.AppendString(nil, "global"), isGlobal: true}
	r.srcIdx = make(map[string]map[string]*edgeEntry, len(r.Edges))
	for edge, m := range r.Edges {
		if err := r.checkModel("edge "+edge, m); err != nil {
			return err
		}
		e := &edgeEntry{
			m:      m,
			label:  "edge:" + edge,
			latKey: fmt.Sprintf("serve.latency_ms{edge=%q}", edge),
		}
		e.jlabel = jsonwire.AppendString(nil, e.label)
		// Register the entry under every (src, dst) split of the key, so
		// the index answers exactly the pairs whose src+"->"+dst
		// concatenation equals this key — including pathological keys
		// with "->" inside src or dst, which are ambiguous by the same
		// rule the flat Edges map applies.
		for i := 0; i+2 <= len(edge); i++ {
			if edge[i] != '-' || i+1 >= len(edge) || edge[i+1] != '>' {
				continue
			}
			src, dst := edge[:i], edge[i+2:]
			byDst := r.srcIdx[src]
			if byDst == nil {
				byDst = make(map[string]*edgeEntry)
				r.srcIdx[src] = byDst
			}
			if prev := byDst[dst]; prev == nil {
				se := *e
				se.src, se.dst = src, dst
				byDst[dst] = &se
			}
		}
	}
	return nil
}

// checkModel verifies one model's feature layout matches the registry's.
func (r *Registry) checkModel(what string, m *gbt.Model) error {
	if m == nil {
		return fmt.Errorf("%w: %s model is null", ErrBadRegistry, what)
	}
	if len(m.Names) != len(r.Features) {
		return fmt.Errorf("%w: %s model has %d features, registry has %d",
			ErrBadRegistry, what, len(m.Names), len(r.Features))
	}
	for i, name := range m.Names {
		if name != r.Features[i] {
			return fmt.Errorf("%w: %s model feature %d is %q, registry says %q",
				ErrBadRegistry, what, i, name, r.Features[i])
		}
	}
	return nil
}

// Validate runs every sanity probe against its model. This is the
// golden-tolerance gate: a registry whose serialized weights were
// corrupted in a way that still parses will predict off-probe and be
// refused promotion.
func (r *Registry) Validate() error {
	if len(r.Probes) == 0 {
		return fmt.Errorf("%w: no sanity probes", ErrBadRegistry)
	}
	tol := r.Tolerance
	if tol <= 0 {
		tol = defaultTolerance
	}
	for i, p := range r.Probes {
		m := r.Global
		what := "global"
		if p.Edge != "" {
			m = r.Edges[p.Edge]
			what = "edge " + p.Edge
			if m == nil {
				return fmt.Errorf("%w: probe %d references unknown %s", ErrBadRegistry, i, what)
			}
		}
		if len(p.X) != len(r.Features) {
			return fmt.Errorf("%w: probe %d has %d inputs, want %d", ErrBadRegistry, i, len(p.X), len(r.Features))
		}
		got, err := m.Predict(p.X)
		if err != nil {
			return fmt.Errorf("%w: probe %d (%s): %v", ErrBadRegistry, i, what, err)
		}
		if !(math.Abs(got-p.Want) <= tol*math.Max(1, math.Abs(p.Want))) {
			return fmt.Errorf("%w: probe %d (%s) predicted %v, want %v (tolerance %g)",
				ErrBadRegistry, i, what, got, p.Want, tol)
		}
		// Code-space gate: a model carrying a quantized forest must
		// reproduce the float answer BIT-identically on every probe it
		// can quantize — no tolerance. Divergence here means the cuts or
		// packed nodes were corrupted in a way the float probes can't
		// see, and the file must not serve.
		if m.CodeSpace() {
			codes := make([]uint8, len(p.X))
			if qerr := m.QuantizeRow(p.X, codes); qerr == nil {
				var cout [1]float64
				if cerr := m.PredictCodes([][]uint8{codes}, cout[:]); cerr != nil {
					return fmt.Errorf("%w: probe %d (%s) code path: %v", ErrBadRegistry, i, what, cerr)
				}
				if cout[0] != got {
					return fmt.Errorf("%w: probe %d (%s) code path predicted %v, float path %v — quantized forest diverges",
						ErrBadRegistry, i, what, cout[0], got)
				}
			}
		}
	}
	return nil
}

// Lookup returns the model serving the src→dst edge — the edge's own
// model when the registry has one, the global fallback otherwise — plus
// the label the response and metrics report.
func (r *Registry) Lookup(src, dst string) (*gbt.Model, string) {
	e := r.lookupEntry(src, dst)
	return e.m, e.label
}

// lookupEntry resolves the serving entry for one src→dst pair with two
// map hits and zero allocations — the per-row resolver on the admission
// and batch paths. Registries that skipped init (hand-built in tests)
// fall back to the flat key concatenation.
func (r *Registry) lookupEntry(src, dst string) *edgeEntry {
	if byDst := r.srcIdx[src]; byDst != nil {
		if e := byDst[dst]; e != nil {
			return e
		}
	}
	if r.global == nil {
		key := src + "->" + dst
		if m := r.Edges[key]; m != nil {
			return &edgeEntry{m: m, src: src, dst: dst, label: "edge:" + key,
				jlabel: jsonwire.AppendString(nil, "edge:"+key),
				latKey: fmt.Sprintf("serve.latency_ms{edge=%q}", key)}
		}
		return &edgeEntry{m: r.Global, label: "global", jlabel: jsonwire.AppendString(nil, "global"), isGlobal: true}
	}
	return r.global
}

// lookupEntryB is lookupEntry over byte slices still aliasing a request
// buffer — the map lookups compile to zero-copy string views, so the
// codec can resolve an edge before interning src/dst.
func (r *Registry) lookupEntryB(src, dst []byte) *edgeEntry {
	if byDst := r.srcIdx[string(src)]; byDst != nil {
		if e := byDst[string(dst)]; e != nil {
			return e
		}
	}
	if r.global == nil {
		return r.lookupEntry(string(src), string(dst))
	}
	return r.global
}

// Vectorize fills dst (len(Features)) with the request's named feature
// values in registry column order; names the registry does not know are
// reported in err. Missing features default to zero — a request is a
// sparse map, not a fixed-width row.
func (r *Registry) Vectorize(feats map[string]float64, dst []float64) error {
	for i := range dst {
		dst[i] = 0
	}
	for name, v := range feats {
		j, ok := r.nameIdx[name]
		if !ok {
			return fmt.Errorf("unknown feature %q", name)
		}
		dst[j] = v
	}
	return nil
}
