package experiments

import (
	"os"
	"path/filepath"
	"testing"
)

// TestGoldenTables is the differential guard for the scenario-layer
// refactor: every experiment table, generated with its registered
// default Params, must stay byte-identical to the output captured
// before experiment setup was routed through internal/scenario. The
// golden files hold exactly what `benchtab -run <id>` printed at capture
// time (Render output plus the trailing newline Fprintln adds).
//
// If an experiment's output changes *intentionally*, regenerate its
// golden with `go run ./cmd/benchtab -run <id> > internal/experiments/testdata/<ID>.golden`
// and say why in the commit message.
func TestGoldenTables(t *testing.T) {
	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			if e.Slow && testing.Short() {
				t.Skipf("%s is a deviation search; skipped under -short", e.ID)
			}
			t.Parallel()
			want, err := os.ReadFile(filepath.Join("testdata", e.ID+".golden"))
			if err != nil {
				t.Fatalf("missing golden for %s: %v (capture it with benchtab)", e.ID, err)
			}
			tbl, err := e.Run()
			if err != nil {
				t.Fatal(err)
			}
			if got := Render(tbl) + "\n"; got != string(want) {
				t.Errorf("%s table drifted from pre-refactor golden\ngot:\n%s\nwant:\n%s", e.ID, got, want)
			}
		})
	}
}
