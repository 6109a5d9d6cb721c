package core

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/ml/gbt"
	"repro/internal/obs"
)

// figureDigests are the SHA-256 digests of Figures 9–12 rendered over
// every Small-world study edge, recorded when one call fitted both the
// prediction and the explanation models. Splitting the two into
// EvaluateEdges and ExplainEdges must not move a byte of any figure, on
// the exact path or on the 256-bin path the CLI trains with.
var figureDigests = map[int][4]string{
	0: {
		"4f03ee35de850bff12066e5cba61e4374a2d35c70cf992e4b75305e69d4593ab",
		"fc42ad24d8b046b78304d27e4ac3d069e00d2ddbaedc282f2ac3c207b2d37ed2",
		"d7853ac179f7200f7603c4f8a98b908d41e49732d8f0a294b937632e661a9533",
		"8595ccad750c31c2ded90778746fc72eb898484a41899de4aac948552cd85be7",
	},
	256: {
		"4f03ee35de850bff12066e5cba61e4374a2d35c70cf992e4b75305e69d4593ab",
		"756c23cc2a3f865403083bb574ad59d907cdf836103e5c27cf45d4295e61ba4f",
		"02c3f4500783f4f186edc150c39052a0faa516354b5854911383001020807af4",
		"d2b3a87e66f873c822349f7089b3c5725b9ebf684cbea450146019514456720f",
	},
}

func TestFigureDigestsPinned(t *testing.T) {
	p, edges := smallPipeline(t)
	for _, bins := range []int{0, 256} {
		q := *p
		q.GBTBins = bins
		res, err := q.EvaluateEdges(edges)
		if err != nil {
			t.Fatal(err)
		}
		exp, err := q.ExplainEdges(edges)
		if err != nil {
			t.Fatal(err)
		}
		figs := [4]string{RenderFig9(exp), RenderFig10(res), RenderFig11(res), RenderFig12(exp)}
		for i, f := range figs {
			sum := sha256.Sum256([]byte(f))
			if got := hex.EncodeToString(sum[:]); got != figureDigests[bins][i] {
				t.Errorf("bins=%d Figure %d digest %s, pinned %s\n%s", bins, 9+i, got, figureDigests[bins][i], f)
			}
		}
	}
}

// TestEachPassTrainsOneForest counts the boosted trees each pass builds:
// one forest of Rounds trees per edge. Fitting both families in one call
// built two, so the evaluate pass alone builds half of what it used to.
func TestEachPassTrainsOneForest(t *testing.T) {
	p, edges := smallPipeline(t)
	want := int64(len(edges) * gbt.DefaultParams().Rounds)
	for name, pass := range map[string]func(*Pipeline) error{
		"EvaluateEdges": func(q *Pipeline) error { _, err := q.EvaluateEdges(edges); return err },
		"ExplainEdges":  func(q *Pipeline) error { _, err := q.ExplainEdges(edges); return err },
	} {
		q := *p
		q.GBTBins = 256
		q.Obs = &obs.Obs{Metrics: obs.NewRegistry()}
		if err := pass(&q); err != nil {
			t.Fatal(err)
		}
		if got := q.Obs.Counter("gbt.trees_built").Value(); got != want {
			t.Errorf("%s built %d trees, want %d (%d edges × %d rounds)",
				name, got, want, len(edges), gbt.DefaultParams().Rounds)
		}
	}
}
