// Package golden is the test-side half of the repository's golden
// record: every simulated output a test produces (experiment
// renderings, simcheck sweep reports, shrimpsim scenario lines,
// telemetry snapshots) is compared byte for byte with a committed file
// under testdata/golden at the module root. Any change to a simulated
// result shows up there as a diff to review line by line.
//
// Importing the package registers the -update flag, which makes every
// comparison rewrite its file from the current code instead:
//
//	make golden   # go test <the four golden packages> -update
package golden

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/golden from the current code")

// Check compares got with the golden file name (a path under
// testdata/golden at the module root), or rewrites the file under
// -update.
func Check(t testing.TB, name, got string) {
	t.Helper()
	compare(t, name, got, false)
}

// CheckPrefix is Check for a sweep that runs fewer seeds under -short:
// there, got must equal the golden file's leading lines; a full run
// must match the whole file. A prefix cannot rewrite the file, so
// -update fails under -short.
func CheckPrefix(t testing.TB, name, got string) {
	t.Helper()
	if *update && testing.Short() {
		t.Fatalf("%s: -update needs the full run; drop -short", name)
	}
	compare(t, name, got, testing.Short())
}

func compare(t testing.TB, name, got string, prefix bool) {
	t.Helper()
	path := filepath.Join(root(t), "testdata", "golden", filepath.FromSlash(name))
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `make golden` to create it)", err)
	}
	want := string(raw)
	if prefix && len(got) < len(want) && strings.HasSuffix(got, "\n") {
		want = want[:len(got)]
	}
	if got != want {
		t.Errorf("output differs from testdata/golden/%s (run `make golden` and review the diff):\n%s",
			name, firstDiff(want, got))
	}
}

// Stdout runs fn with os.Stdout redirected to a file and returns what
// fn wrote there.
func Stdout(t testing.TB, fn func()) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout := os.Stdout
	os.Stdout = f
	defer func() { os.Stdout = stdout }()
	fn()
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// root is the module root: the nearest directory at or above the test's
// working directory (its package directory) that holds go.mod.
func root(t testing.TB) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("golden: no go.mod above the test's directory")
		}
		dir = parent
	}
}

// firstDiff reports the first line where two renderings part.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			return fmt.Sprintf("line %d:\n  want: %s\n  got:  %s", i+1, w, g)
		}
	}
	return "(no line differs)"
}
