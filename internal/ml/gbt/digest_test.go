package gbt

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"sort"
	"testing"

	"repro/internal/ml/dataset"
)

// digestModel hashes everything a trained model exposes: its serialized
// form (every threshold, weight, gain and tree shape, plus cuts), its
// in-sample predictions bit for bit, and its importances.
func digestModel(t *testing.T, m *Model, d *dataset.Dataset) []byte {
	t.Helper()
	h := sha256.New()
	h.Write(modelBytes(t, m))
	pred, err := m.PredictAll(d)
	if err != nil {
		t.Fatal(err)
	}
	var b [8]byte
	for _, v := range pred {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	imp := m.Importance()
	names := make([]string, 0, len(imp))
	for k := range imp {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		h.Write([]byte(k))
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(imp[k]))
		h.Write(b[:])
	}
	return h.Sum(nil)
}

// narrowed rounds every feature onto a coarse grid so each feature has
// far fewer distinct values than bins (one value per bin).
func narrowed(d *dataset.Dataset) *dataset.Dataset {
	for i := range d.X {
		for j := range d.X[i] {
			d.X[i][j] = math.Round(d.X[i][j]*4) / 4
		}
	}
	return d
}

// TestTrainingGoldenDigest pins training output bit for bit: each case's
// digest covers its serialized models, in-sample predictions and
// importances, across cold and warm starts, row and column subsampling,
// MinChildWeight, worker counts, and wide (256 occupied bins) and narrow
// (a few values per feature) data. The digests were recorded before the
// histogram path became sparse; any optimisation of tree growth must
// leave them unchanged. They are amd64 digests: Go may fuse a
// multiply-add into one rounding on other architectures.
func TestTrainingGoldenDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests recorded on amd64")
	}
	target := func(x []float64) float64 {
		return 3*x[0] - x[1]*x[2]/4 + math.Sin(x[3]) + 0.5*x[4]
	}
	wide := makeDataset(t, 1500, 71, target, 0.3, 6)
	wide2 := makeDataset(t, 900, 72, func(x []float64) float64 { return target(x) + 1.5*x[5] }, 0.3, 6)
	narrow := narrowed(makeDataset(t, 800, 73, target, 0.3, 6))
	narrow2 := narrowed(makeDataset(t, 600, 74, target, 0.3, 6))

	cases := []struct {
		name       string
		data, warm *dataset.Dataset // warm != nil: TrainWarm on warm from the model fitted on data
		bins       int
		rows, cols float64
		minChild   float64
		want       string
	}{
		{"wide/default", wide, nil, 256, 0.9, 1, 0, "1368274ba76998769b0b52f617fdd6493f3b2ddbdf801e852f94f2e6ab2b62e7"},
		{"wide/allrows", wide, nil, 256, 1, 1, 0, "7193af6981410b1a54d00f02a0f9b5225b19e153e601cffe6fb43d21e1ea8e1f"},
		{"wide/cols0.6", wide, nil, 256, 0.9, 0.6, 0, "49df122eab2fbdcc34288dbc2d12ff9698711222bd6c56f639c74d159db91598"},
		{"wide/minchild3", wide, nil, 256, 0.9, 0.6, 3, "6d39c7d0ab94b69688069f4e74db7c48579292e5854926841318b920e68ee13b"},
		{"wide/bins32", wide, nil, 32, 1, 0.6, 3, "c46364220c99946ccafea7ee7eca804fbb75a2c4baeea01ef73465f6a0da593c"},
		{"wide/warm", wide, wide2, 256, 0.9, 1, 0, "a31e186afa63bf7b91944a23f7d88d6a308b2927f26b9605fcf5b1da0ea5d011"},
		{"wide/warm-allrows-minchild3", wide, wide2, 256, 1, 0.6, 3, "89d69b05137de075741954bf6817aa6f778210b80527fde0f3dc1558b764e361"},
		{"narrow/default", narrow, nil, 256, 0.9, 1, 0, "1478162ac45c218afbff435c7da482eb020e7513b2ccb6067cdc9bd805b8949a"},
		{"narrow/allrows-cols0.6", narrow, nil, 256, 1, 0.6, 0, "27f8cd3a4a77d4dfeaa3ec223708db4e1b2f207f945ace291ef305a5d5c56ce2"},
		{"narrow/minchild3", narrow, nil, 256, 0.9, 1, 3, "04df1f70c883099ea9191297ce40b0d8509b15a031467b39ea6f5196c403a1cf"},
		{"narrow/warm", narrow, narrow2, 256, 0.9, 0.6, 0, "849c3b821095f5c81f7f5170b39bd8751d2f7c84bf697409b11755bb09aa164e"},
		{"wide/exact", wide, nil, 0, 0.9, 0.6, 0, "eae2e72a9e6a13deef5a82002bc954df1ce20ff148503b921cc5dadc0c266735"},
	}
	for _, c := range cases {
		var got string
		for _, workers := range []int{1, 4} {
			p := DefaultParams()
			p.Rounds = 40
			p.Bins = c.bins
			p.SubsampleRows = c.rows
			p.SubsampleCols = c.cols
			p.MinChildWeight = c.minChild
			p.Workers = workers
			m, err := Train(c.data, p)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			h.Write(digestModel(t, m, c.data))
			if c.warm != nil {
				p.Rounds = 25
				w, err := TrainWarm(c.warm, p, m)
				if err != nil {
					t.Fatal(err)
				}
				h.Write(digestModel(t, w, c.warm))
			}
			d := hex.EncodeToString(h.Sum(nil))
			if workers == 1 {
				got = d
			} else if d != got {
				t.Errorf("%s: digest differs between 1 and %d workers", c.name, workers)
			}
		}
		if got != c.want {
			t.Errorf("%s: digest %s, want %s", c.name, got, c.want)
		}
	}
}
