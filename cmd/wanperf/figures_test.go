package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
)

// TestFigureCommandsPinned pins the stdout of the commands that render
// the per-edge models, as SHA-256 digests recorded when every one of them
// fitted both the prediction and the explanation models. `models` now
// runs only the evaluate pass and fig9/fig12 only the explain pass; what
// they print must not move a byte. The lmt digest was recorded while the
// storage monitor still copied all its bins on every growth step.
func TestFigureCommandsPinned(t *testing.T) {
	for _, c := range []struct{ cmd, sha string }{
		{"models", "fedc7671eaf1a3463efc7d946873d7b7c96b866d7d678953eb10821a36352d94"},
		{"fig9", "4f03ee35de850bff12066e5cba61e4374a2d35c70cf992e4b75305e69d4593ab"},
		{"fig12", "d2b3a87e66f873c822349f7089b3c5725b9ebf684cbea450146019514456720f"},
		{"lmt", "dd3c31d6e76033a096d6e55b1111f9290326ad5964a96e209e0df47ab811cd81"},
	} {
		out := captureStdout(t, func() {
			if code := realMain(context.Background(), []string{c.cmd, "-small"}); code != 0 {
				t.Fatalf("%s exited %d", c.cmd, code)
			}
		})
		sum := sha256.Sum256(out)
		if got := hex.EncodeToString(sum[:]); got != c.sha {
			t.Errorf("%s -small stdout digest %s, pinned %s\n%s", c.cmd, got, c.sha, out)
		}
	}
}

// captureStdout returns what fn writes to os.Stdout.
func captureStdout(t *testing.T, fn func()) []byte {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stdout
	os.Stdout = f
	defer func() { os.Stdout = saved }()
	fn()
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return out
}
