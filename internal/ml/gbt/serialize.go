package gbt

import (
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/jsonwire"
)

// Serialization: a trained ensemble round-trips through a compact JSON
// form, so models can be trained offline (e.g. from historical logs) and
// shipped to the scheduler or prediction service that uses them. The wire
// format — nodes flattened in pre-order with explicit child indices — is
// also the in-memory layout, so Save/Load are direct field mappings.
//
// The file is
//
//	{"version":1,"base":B,"names":[...],"bins":N,"cuts":[[...],...],
//	 "trees":[[{"f":F,"t":T,"w":W,"g":G,"l":L,"r":R},...],...]}
//
// with bins and cuts present only for histogram-trained models (files
// written before histogram training existed load unchanged), and t, w
// and g omitted when zero. A leaf has f = -1 and l = r = -1; an internal
// node's l and r index its children in the same tree. The codec is
// hand-written over jsonwire, one pass each way, and writes exactly the
// bytes encoding/json wrote for the same model; the tests keep the
// encoding/json form as their oracle.

const serializationVersion = 1

// ErrBadModel is returned when deserialization encounters a malformed or
// unsupported payload.
var ErrBadModel = errors.New("gbt: malformed model payload")

// Save writes the model as JSON.
func (m *Model) Save(w io.Writer) error {
	var e jsonwire.Encoder
	m.EncodeJSON(&e)
	return e.WriteLine(w)
}

// EncodeJSON appends the payload Save writes, without its trailing
// newline, so a model embeds directly in larger documents — the serve
// registry stores its per-edge and global models this way. An untrained
// model records ErrNotTrained in e.
func (m *Model) EncodeJSON(e *jsonwire.Encoder) {
	if len(m.trees) == 0 {
		e.Fail(ErrNotTrained)
		return
	}
	e.Raw(`{"version":`)
	e.Int(serializationVersion)
	e.Raw(`,"base":`)
	e.Float(m.Base)
	e.Raw(`,"names":`)
	e.Strings(m.Names)
	if m.bins != 0 {
		e.Raw(`,"bins":`)
		e.Int(m.bins)
	}
	if len(m.cuts) > 0 {
		e.Raw(`,"cuts":[`)
		for i, c := range m.cuts {
			if i > 0 {
				e.Raw(",")
			}
			e.Floats(c)
		}
		e.Raw("]")
	}
	e.Raw(`,"trees":[`)
	for ti := range m.trees {
		if ti > 0 {
			e.Raw(",")
		}
		e.Raw("[")
		for i, n := range m.trees[ti].nodes {
			if i > 0 {
				e.Raw(",")
			}
			if n.feature < 0 {
				e.Raw(`{"f":-1`)
				e.OmitZero(`,"w":`, n.weight)
				e.Raw(`,"l":-1,"r":-1}`)
				continue
			}
			e.Raw(`{"f":`)
			e.Int(int(n.feature))
			e.OmitZero(`,"t":`, n.threshold)
			e.OmitZero(`,"g":`, n.gain)
			e.Raw(`,"l":`)
			e.Int(int(n.left))
			e.Raw(`,"r":`)
			e.Int(int(n.right))
			e.Raw("}")
		}
		e.Raw("]")
	}
	e.Raw("]}")
}

// Load reads a model previously written by Save.
func Load(r io.Reader) (*Model, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadModel, err)
	}
	d := jsonwire.NewDecoder(data)
	m := DecodeJSON(d)
	if err := d.End(); errors.Is(err, ErrBadModel) {
		return nil, err
	} else if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadModel, err)
	}
	return m, nil
}

// modelKeys and nodeKeys are the members a model and a tree node may
// carry, in wire order.
var (
	modelKeys = []string{"version", "base", "names", "bins", "cuts", "trees"}
	nodeKeys  = []string{"f", "t", "w", "g", "l", "r"}
)

// DecodeJSON reads one model — a document Save wrote or a model embedded
// in a larger one — with every structural check Load applies. It
// returns nil after recording the first error in d: a jsonwire syntax
// error, or an ErrBadModel validation failure. A null value decodes as
// an empty payload and fails validation.
func DecodeJSON(d *jsonwire.Decoder) *Model {
	var (
		version, bins int
		base          float64
		names         []string
		cuts          [][]float64
		trees         []tree
		seen          uint32
	)
	if !d.Null() {
		for more := d.Begin('{'); more; more = d.Next('}') {
			switch d.Member(modelKeys, &seen) {
			case 0:
				version = d.Int()
			case 1:
				base = d.Float()
			case 2:
				names = d.Strings()
			case 3:
				bins = d.Int()
			case 4:
				cuts = decodeCuts(d)
			case 5:
				trees = decodeTrees(d)
			}
		}
	}
	if d.Err() != nil {
		return nil
	}
	m, err := newLoaded(version, base, names, bins, cuts, trees)
	if err != nil {
		d.Fail(err)
		return nil
	}
	return m
}

func decodeCuts(d *jsonwire.Decoder) [][]float64 {
	if d.Null() {
		return nil
	}
	cuts := [][]float64{}
	for more := d.Begin('['); more; more = d.Next(']') {
		cuts = append(cuts, d.Floats())
	}
	return cuts
}

// decodeTrees reads the trees array, each tree's nodes straight into the
// in-memory layout.
func decodeTrees(d *jsonwire.Decoder) []tree {
	if d.Null() {
		return nil
	}
	trees := []tree{}
	var scratch []node
	for more := d.Begin('['); more; more = d.Next(']') {
		var t tree
		if !d.Null() {
			scratch = scratch[:0]
			for more := d.Begin('['); more; more = d.Next(']') {
				scratch = append(scratch, decodeNode(d))
			}
			t.nodes = make([]node, len(scratch))
			copy(t.nodes, scratch)
		}
		trees = append(trees, t)
	}
	return trees
}

// decodeNode reads one node. A negative feature makes a leaf, which
// keeps only its weight; an internal node keeps everything but the
// weight. Out-of-int32 indices are clamped, which preserves the verdict
// of checkTree's range checks.
func decodeNode(d *jsonwire.Decoder) node {
	var f, l, r int
	var n node
	if !d.Null() {
		var seen uint32
		for more := d.Begin('{'); more; more = d.Next('}') {
			switch d.Member(nodeKeys, &seen) {
			case 0:
				f = d.Int()
			case 1:
				n.threshold = d.Float()
			case 2:
				n.weight = d.Float()
			case 3:
				n.gain = d.Float()
			case 4:
				l = d.Int()
			case 5:
				r = d.Int()
			}
		}
	}
	if f < 0 {
		return node{feature: -1, weight: n.weight}
	}
	n.weight = 0
	n.feature, n.left, n.right = clamp32(f), clamp32(l), clamp32(r)
	return n
}

func clamp32(v int) int32 {
	return int32(max(math.MinInt32, min(v, math.MaxInt32)))
}

// newLoaded validates a decoded payload and builds the in-memory model.
func newLoaded(version int, base float64, names []string, bins int, cuts [][]float64, trees []tree) (*Model, error) {
	if version != serializationVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadModel, version)
	}
	if len(names) == 0 || len(trees) == 0 {
		return nil, fmt.Errorf("%w: empty model", ErrBadModel)
	}
	if bins < 0 || bins > 256 {
		return nil, fmt.Errorf("%w: bins %d out of range", ErrBadModel, bins)
	}
	if cuts != nil && len(cuts) != len(names) {
		return nil, fmt.Errorf("%w: %d cut-point columns for %d features", ErrBadModel, len(cuts), len(names))
	}
	for ti := range trees {
		if err := checkTree(trees[ti].nodes, len(names)); err != nil {
			return nil, fmt.Errorf("%w: tree %d: %v", ErrBadModel, ti, err)
		}
	}
	m := &Model{Base: base, Names: names, bins: bins, cuts: cuts, trees: trees}
	m.buildQuantizer()
	m.buildFlat()
	return m, nil
}

// checkTree validates a decoded tree — feature references, index
// ranges, and the pre-order invariant that children strictly follow
// their parent (so a crafted payload cannot make Predict loop).
func checkTree(nodes []node, numFeatures int) error {
	if len(nodes) == 0 {
		return fmt.Errorf("empty tree")
	}
	for i, n := range nodes {
		if n.feature < 0 {
			continue
		}
		if int(n.feature) >= numFeatures {
			return fmt.Errorf("feature %d out of range", n.feature)
		}
		if int(n.left) <= i || int(n.right) <= i {
			return fmt.Errorf("node %d has non-forward child", i)
		}
		if int(n.left) >= len(nodes) || int(n.right) >= len(nodes) {
			return fmt.Errorf("node %d child index out of range", i)
		}
	}
	return nil
}
