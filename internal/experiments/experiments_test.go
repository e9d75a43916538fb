package experiments

import (
	"math"
	"strings"
	"testing"

	"hypersort/internal/machine"
)

func TestTable1SmallSweep(t *testing.T) {
	rows, err := Table1(Table1Config{MinN: 3, MaxN: 5, Trials: 300, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Rows: n=3 (r=2), n=4 (r=2,3), n=5 (r=2,3,4) = 6 rows.
	if len(rows) != 6 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, row := range rows {
		var sum float64
		for m, pct := range row.Pct {
			if m < 1 || m > row.N-1 {
				t.Errorf("n=%d r=%d: impossible mincut %d", row.N, row.R, m)
			}
			if pct < 0 || pct > 100 {
				t.Errorf("percentage %v out of range", pct)
			}
			sum += pct
		}
		if math.Abs(sum-100) > 1e-9 {
			t.Errorf("n=%d r=%d: percentages sum to %v", row.N, row.R, sum)
		}
	}
	out := FormatTable1(rows)
	if !strings.Contains(out, "mincut") {
		t.Error("format missing header")
	}
}

// TestTable1PaperAnchor checks the one number the paper quotes: for
// n = 6, r = 5, about 94% of placements partition with mincut 3 and the
// rest mostly mincut 4 — i.e. mincut 3 dominates heavily.
func TestTable1PaperAnchor(t *testing.T) {
	rows, err := Table1(Table1Config{MinN: 6, MaxN: 6, Trials: 2000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, row := range rows {
		if row.R != 5 {
			continue
		}
		found = true
		if row.Pct[3] < 85 {
			t.Errorf("n=6 r=5: mincut-3 share %.1f%%, paper reports ~93.85%%", row.Pct[3])
		}
		if row.Pct[3]+row.Pct[4]+row.Pct[2] < 99.9 {
			t.Errorf("n=6 r=5: mass outside mincut 2-4: %v", row.Pct)
		}
	}
	if !found {
		t.Fatal("no n=6 r=5 row")
	}
}

func TestTable1Deterministic(t *testing.T) {
	a, err := Table1(Table1Config{MinN: 4, MaxN: 4, Trials: 200, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Table1(Table1Config{MinN: 4, MaxN: 4, Trials: 200, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		for m, pct := range a[i].Pct {
			if b[i].Pct[m] != pct {
				t.Fatal("Table1 not deterministic")
			}
		}
	}
}

func TestTable2SmallSweep(t *testing.T) {
	rows, err := Table2(Table2Config{MinN: 3, MaxN: 6, Trials: 150, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2+3+4+5-2 { // r=1..n-1 for n=3..6: 2+3+4+5 = 14... computed explicitly below
	}
	want := 0
	for n := 3; n <= 6; n++ {
		want += n - 1
	}
	if len(rows) != want {
		t.Fatalf("got %d rows, want %d", len(rows), want)
	}
	for _, row := range rows {
		if row.OursWorst > row.OursBest || row.BaseWorst > row.BaseBest {
			t.Errorf("n=%d r=%d: worst above best", row.N, row.R)
		}
		// The headline claim: our utilization dominates the baseline's in
		// best, worst, and mean.
		if row.OursBest < row.BaseBest || row.OursWorst < row.BaseWorst || row.OursMean < row.BaseMean {
			t.Errorf("n=%d r=%d: ours (%v/%v) below baseline (%v/%v)",
				row.N, row.R, row.OursBest, row.OursWorst, row.BaseBest, row.BaseWorst)
		}
	}
	out := FormatTable2(rows)
	if !strings.Contains(out, "baseline best") {
		t.Error("format missing header")
	}
}

// TestTable2PaperAnchors checks the utilization numbers §4 quotes for
// n = 6, r = 4: ours 100% best / 93.3% worst, baseline 53.3% best /
// 26.6% worst.
func TestTable2PaperAnchors(t *testing.T) {
	rows, err := Table2(Table2Config{MinN: 6, MaxN: 6, Trials: 1500, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		if row.R != 4 {
			continue
		}
		approx := func(got, want float64) bool { return math.Abs(got-want) < 0.01 }
		if !approx(row.OursBest, 1.0) {
			t.Errorf("ours best = %v, paper: 100%%", row.OursBest)
		}
		if !approx(row.OursWorst, 56.0/60.0) {
			t.Errorf("ours worst = %v, paper: 93.3%%", row.OursWorst)
		}
		if !approx(row.BaseBest, 32.0/60.0) {
			t.Errorf("baseline best = %v, paper: 53.3%%", row.BaseBest)
		}
		if !approx(row.BaseWorst, 16.0/60.0) {
			t.Errorf("baseline worst = %v, paper: 26.6%%", row.BaseWorst)
		}
	}
}

func TestFig7SmallPanel(t *testing.T) {
	series, err := Fig7(Fig7Config{N: 4, Ms: []int{400, 1600}, TrialsPerPoint: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// 4 "ours" curves (r=0..3) + 3 baselines (Q3, Q2, Q1).
	if len(series) != 7 {
		t.Fatalf("got %d series", len(series))
	}
	for _, s := range series {
		if len(s.Points) != 2 {
			t.Fatalf("series %q has %d points", s.Label, len(s.Points))
		}
		if s.Points[1].Makespan <= s.Points[0].Makespan {
			t.Errorf("series %q not increasing in M", s.Label)
		}
	}
	out := FormatFig7(series)
	if !strings.Contains(out, "baseline fault-free Q_3") {
		t.Error("format missing baseline column")
	}
	if FormatFig7(nil) != "" {
		t.Error("empty series should render empty")
	}
}

func TestFig7Validation(t *testing.T) {
	if _, err := Fig7(Fig7Config{N: 0}); err == nil {
		t.Error("N=0 accepted")
	}
	if _, err := Fig7(Fig7Config{N: 99}); err == nil {
		t.Error("N=99 accepted")
	}
}

// TestConfigValidation pins the parameters the sweeps refuse rather
// than tabulating nonsense: negative trial counts (an empty Table 1,
// a 200% worst case in Table 2, zero makespans in Figure 7), inverted
// dimension ranges, and dimensions the cube cannot build. Zero still
// means the default.
func TestConfigValidation(t *testing.T) {
	table1 := func(c Table1Config) error { _, err := Table1(c); return err }
	table2 := func(c Table2Config) error { _, err := Table2(c); return err }
	fig7 := func(c Fig7Config) error { _, err := Fig7(c); return err }
	for _, tc := range []struct {
		name string
		err  error
		want string // "" accepts
	}{
		{"table1 negative trials", table1(Table1Config{Trials: -5}), "trials -5 is negative"},
		{"table1 max above MaxDim", table1(Table1Config{MaxN: 30}), "outside [0,24]"},
		{"table1 negative min", table1(Table1Config{MinN: -1, MaxN: 3}), "outside [0,24]"},
		{"table1 inverted range", table1(Table1Config{MinN: 5, MaxN: 4}), "exceeds largest"},
		{"table1 zero trials is the default", table1(Table1Config{MinN: 3, MaxN: 3}), ""},
		{"table2 negative trials", table2(Table2Config{Trials: -5}), "trials -5 is negative"},
		{"table2 max above MaxDim", table2(Table2Config{MinN: 3, MaxN: 25, Trials: 1}), "outside [0,24]"},
		{"table2 inverted range", table2(Table2Config{MinN: 7, MaxN: 6}), "exceeds largest"},
		{"table2 zero trials is the default", table2(Table2Config{MinN: 3, MaxN: 3}), ""},
		{"fig7 negative trials", fig7(Fig7Config{N: 3, TrialsPerPoint: -1}), "trials per point -1 is negative"},
		{"fig7 zero trials is the default", fig7(Fig7Config{N: 2, Ms: []int{64}}), ""},
	} {
		switch {
		case tc.want == "" && tc.err != nil:
			t.Errorf("%s: %v", tc.name, tc.err)
		case tc.want != "" && (tc.err == nil || !strings.Contains(tc.err.Error(), tc.want)):
			t.Errorf("%s: error %v, want one containing %q", tc.name, tc.err, tc.want)
		}
	}
}

// TestFig7ShapeQ5 is the headline Figure 7 reproduction at reduced
// scale: on Q_5, at the top of the paper's M range, the proposed
// algorithm with r = 1..2 must beat the fault-free Q_4 baseline and
// every r must beat Q_3. The wins come from the local-sort term (more
// working processors means smaller chunks), so they only materialize at
// the large-M end — exactly the paper's "when the number of unsorted
// elements is large enough" remark.
func TestFig7ShapeQ5(t *testing.T) {
	if testing.Short() {
		t.Skip("large-M sweep")
	}
	series, err := Fig7(Fig7Config{N: 5, Ms: []int{32000, 256000}, TrialsPerPoint: 4, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if violations := CheckFig7Shape(series); len(violations) > 0 {
		t.Errorf("shape violations: %v", violations)
	}
}

func TestCostAgreement(t *testing.T) {
	rows, err := CostAgreement(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.Ratio < 0.2 || r.Ratio > 5 {
			t.Errorf("n=%d r=%d: ratio %.2f outside band", r.N, r.R, r.Ratio)
		}
	}
	if !strings.Contains(FormatCostAgreement(rows), "ratio") {
		t.Error("format missing header")
	}
}

func TestHeuristicValue(t *testing.T) {
	rows, err := HeuristicValue(6, 2000, 12, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Skip("no placement with a non-trivial Ψ in this sample")
	}
	var bestTime, worstTime machine.Time
	for _, r := range rows {
		if r.BestCost >= r.WorstCost {
			t.Errorf("selection not better by formula (1): %d vs %d", r.BestCost, r.WorstCost)
		}
		bestTime += r.BestMakespan
		worstTime += r.WorstMakespan
	}
	// Formula (1) bounds the turnaround (max extra hops per stage, i.e.
	// the critical path), not total traffic, so the aggregate assertion
	// is on simulated completion time: selected sequences must not be
	// slower than the worst-scoring ones overall.
	if bestTime > worstTime {
		t.Errorf("heuristic increased aggregate makespan: %d vs %d", bestTime, worstTime)
	}
	if !strings.Contains(FormatHeuristic(rows), "best cost") {
		t.Error("format missing header")
	}
}

func TestFaultModelComparison(t *testing.T) {
	rows, err := FaultModelComparison(5, 1000, 6, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.TotalMakespan < r.PartialMakespan {
			t.Errorf("total model cheaper than partial: %+v", r)
		}
		if r.TotalKeyHops < r.PartialKeyHops {
			t.Errorf("total model fewer key-hops than partial: %+v", r)
		}
	}
	if !strings.Contains(FormatFaultModel(rows), "partial time") {
		t.Error("format missing header")
	}
}

func TestProtocolComparison(t *testing.T) {
	rows, err := ProtocolComparison(4, 800, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 { // 3 trials x 2 startup values
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.HalfMessages != 2*r.FullMessages {
			t.Errorf("half messages %d != 2x full %d", r.HalfMessages, r.FullMessages)
		}
		if r.HalfComparisons <= r.FullComparisons {
			t.Errorf("half comparisons %d should exceed full %d", r.HalfComparisons, r.FullComparisons)
		}
		if r.Startup > 0 && r.HalfMakespan < r.FullMakespan {
			t.Errorf("with startup %d the half-exchange (%d) should not beat full-block (%d)",
				r.Startup, r.HalfMakespan, r.FullMakespan)
		}
	}
	if !strings.Contains(FormatProtocol(rows), "half msgs") {
		t.Error("format missing header")
	}
}

func TestSpeedup(t *testing.T) {
	rows, err := Speedup(8192, 5, 12, machine.CostModel{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("got %d rows", len(rows))
	}
	if rows[0].Speedup != 1 || rows[0].Efficiency != 1 {
		t.Error("n=0 baseline speedup wrong")
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Makespan >= rows[i-1].Makespan {
			t.Errorf("n=%d not faster than n=%d", rows[i].N, rows[i-1].N)
		}
		if rows[i].Speedup <= rows[i-1].Speedup {
			t.Errorf("speedup not increasing at n=%d", rows[i].N)
		}
		if rows[i].Efficiency > 1.0001 {
			t.Errorf("superlinear efficiency %v at n=%d", rows[i].Efficiency, rows[i].N)
		}
	}
	if !strings.Contains(FormatSpeedup(rows), "efficiency") {
		t.Error("format missing header")
	}
}

func TestDistributionOverhead(t *testing.T) {
	rows, err := DistributionOverhead(5, 2, []int{1000, 8000}, 13)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.WithDistrib <= r.SortOnly {
			t.Errorf("M=%d: distribution added no time (%d vs %d)", r.M, r.WithDistrib, r.SortOnly)
		}
		if r.OverheadShare <= 0 || r.OverheadShare >= 1 {
			t.Errorf("M=%d: overhead share %v implausible", r.M, r.OverheadShare)
		}
	}
	// The scatter/gather volume is Θ(M) either way, so the share should
	// be substantial but not dominate completely.
	if rows[1].OverheadShare > 0.9 {
		t.Errorf("overhead share %v suspiciously high", rows[1].OverheadShare)
	}
	if !strings.Contains(FormatDistribution(rows), "overhead share") {
		t.Error("format missing header")
	}
}

func TestBeyondGuarantee(t *testing.T) {
	rows, err := BeyondGuarantee(4, 7, 60, 14)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.R <= r.N-1 && r.Separable != 1 {
			t.Errorf("r=%d within guarantee but separable %.2f", r.R, r.Separable)
		}
		if r.Separable > 0 && r.SortChecked == 0 {
			t.Errorf("r=%d separable but no sort verified", r.R)
		}
		if r.Separable < 0 || r.Separable > 1 {
			t.Errorf("separable fraction %v out of range", r.Separable)
		}
	}
	// Separability must eventually drop below certainty as faults grow.
	if rows[len(rows)-1].Separable >= rows[0].Separable && rows[len(rows)-1].Separable == 1 {
		t.Log("note: all sampled high-r placements separable (possible at small scale)")
	}
	if !strings.Contains(FormatBeyond(rows), "separable") {
		t.Error("format missing header")
	}
	if _, err := BeyondGuarantee(3, 8, 5, 1); err == nil {
		t.Error("maxR >= N accepted")
	}
}

func TestAvailability(t *testing.T) {
	rows, err := Availability(4, 800, 10, []float64{20, 0.8}, 15)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	calm, storm := rows[0], rows[1]
	if calm.MeanAttempts > 1.2 {
		t.Errorf("calm regime attempts %.2f", calm.MeanAttempts)
	}
	if calm.MeanSlowdown > 1.3 {
		t.Errorf("calm regime slowdown %.2f", calm.MeanSlowdown)
	}
	if storm.GaveUp+int(storm.MeanAttempts*float64(storm.Trials-storm.GaveUp)+0.5) <= storm.Trials {
		t.Errorf("storm regime shows no failure pressure: %+v", storm)
	}
	if !strings.Contains(FormatAvailability(rows), "MTBF/sort") {
		t.Error("format missing header")
	}
}

func TestLinkFaultsExperiment(t *testing.T) {
	rows, err := LinkFaults(4, 600, 3, 4, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.MeanKeyHopInflation < 1 {
			t.Errorf("dead links reduced traffic: %+v", r)
		}
		if r.MeanSlowdown < 1 {
			t.Errorf("dead links reduced makespan: %+v", r)
		}
	}
	if !strings.Contains(FormatLinkFaults(rows), "dead links") {
		t.Error("format missing header")
	}
}

func TestFig7Deterministic(t *testing.T) {
	cfg := Fig7Config{N: 4, Ms: []int{500, 2000}, TrialsPerPoint: 2, Seed: 77}
	a, err := Fig7(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fig7(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		for j := range a[i].Points {
			if a[i].Points[j].Makespan != b[i].Points[j].Makespan {
				t.Fatalf("series %q point %d diverged", a[i].Label, j)
			}
		}
	}
}

func TestFig7CustomCostAndModel(t *testing.T) {
	series, err := Fig7(Fig7Config{
		N: 3, Ms: []int{300}, TrialsPerPoint: 1, Seed: 10,
		Cost:  machine.CostModel{Compare: 1, Elem: 8, Startup: 100},
		Model: machine.Total,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) == 0 {
		t.Fatal("no series")
	}
}

func TestDefaults(t *testing.T) {
	if ms := DefaultMs(); len(ms) != 5 || ms[0] != 3200 || ms[4] != 320000 {
		t.Errorf("DefaultMs = %v", ms)
	}
	if c := DefaultSpeedupCost(); c != machine.PaperCostModel() {
		t.Errorf("DefaultSpeedupCost = %+v", c)
	}
	// Zero-valued configs take the paper's ranges.
	var t1 Table1Config
	t1.fill()
	if t1.MinN != 3 || t1.MaxN != 6 || t1.Trials != 10000 {
		t.Errorf("Table1 defaults = %+v", t1)
	}
	var t2 Table2Config
	t2.fill()
	if t2.MinN != 3 || t2.MaxN != 6 || t2.Trials != 10000 {
		t.Errorf("Table2 defaults = %+v", t2)
	}
}
