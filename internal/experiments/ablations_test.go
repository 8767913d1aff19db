package experiments

import (
	"os"
	"runtime"
	"strings"
	"testing"
)

func TestAblationAdversarialShape(t *testing.T) {
	res, err := AblationAdversarial()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d, want 5 spike values", len(res.Rows))
	}
	prev := 0.0
	for _, row := range res.Rows {
		ap, ok := res.Cell(row.Label, "online-approx")
		if !ok {
			t.Fatalf("row %s missing online-approx", row.Label)
		}
		bound, ok := res.Cell(row.Label, "theorem-2-bound")
		if !ok {
			t.Fatalf("row %s missing theorem-2-bound", row.Label)
		}
		if ap.Stats.Mean < 1-1e-9 || ap.Stats.Mean > bound.Stats.Mean {
			t.Errorf("%s: ratio %g outside [1, bound %g]", row.Label, ap.Stats.Mean, bound.Stats.Mean)
		}
		// The family is calibrated so stress grows with the spike.
		if ap.Stats.Mean < prev-0.05 {
			t.Errorf("%s: ratio %g fell sharply from %g — family not monotone in stress",
				row.Label, ap.Stats.Mean, prev)
		}
		prev = ap.Stats.Mean
	}
}

func TestAblationLookaheadTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-solve ablation")
	}
	p := Params{Users: 4, Horizon: 3, Reps: 1, Seed: 61}
	res, err := AblationLookahead(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 { // windows 1, 2, 3 fit a 3-slot horizon
		t.Fatalf("rows = %d, want 3", len(res.Rows))
	}
	for _, row := range res.Rows {
		la, ok := res.Cell(row.Label, "lookahead")
		if !ok {
			t.Fatalf("row %s missing lookahead cell", row.Label)
		}
		if la.Stats.Mean < 0.97 || la.Stats.Mean > 3 {
			t.Errorf("%s: implausible ratio %g", row.Label, la.Stats.Mean)
		}
	}
}

func TestAblationRegularizerTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-solve ablation")
	}
	p := Params{Users: 4, Horizon: 3, Reps: 1, Seed: 62}
	res, err := AblationRegularizer(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 mu values", len(res.Rows))
	}
	for _, row := range res.Rows {
		for _, name := range []string{"online-approx", "online-proximal"} {
			if _, ok := res.Cell(row.Label, name); !ok {
				t.Errorf("row %s missing %s", row.Label, name)
			}
		}
	}
}

func TestAblationByName(t *testing.T) {
	if _, err := AblationByName("bogus", Params{}); err == nil ||
		!strings.Contains(err.Error(), "unknown ablation") {
		t.Errorf("AblationByName accepted bogus study (err=%v)", err)
	}
}

// TestAblationTablesMatchRecord regenerates Ablations A, B and C at the scale
// results_ablations.txt was recorded at (edgesim -ablation all -users 6
// -horizon 5 -reps 1) and holds each table to the file's, line for line,
// the elapsed-time line aside. It pins the lookahead windows' ratios
// (window 1 is online-greedy), the entropy and quadratic regularizers'
// ratios and Theorem 2's bound as RatioBound computes it. The digits come
// out of float64 solves, so, like the schedule digests, it runs on amd64
// only.
func TestAblationTablesMatchRecord(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the record is made on amd64; other targets fuse multiply-adds")
	}
	raw, err := os.ReadFile("../../results_ablations.txt")
	if err != nil {
		t.Fatal(err)
	}
	recorded := map[string]string{}
	for _, sec := range strings.Split(string(raw), "\n\n") {
		var keep []string
		for _, line := range strings.Split(strings.Trim(sec, "\n"), "\n") {
			if !strings.HasPrefix(line, "   (Ablation ") {
				keep = append(keep, line)
			}
		}
		recorded[keep[0]] = strings.Join(keep, "\n")
	}
	p := Params{Users: 6, Horizon: 5, Reps: 1}
	for _, name := range []string{"lookahead", "regularizer", "adversarial"} {
		res, err := AblationByName(name, p)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		res.WriteTable(&b)
		got := strings.TrimRight(b.String(), "\n")
		head, _, _ := strings.Cut(got, "\n")
		if want, ok := recorded[head]; !ok {
			t.Errorf("%s: no table headed %q in the record", name, head)
		} else if got != want {
			t.Errorf("%s: table\n%s\nrecorded\n%s", name, got, want)
		}
	}
}
