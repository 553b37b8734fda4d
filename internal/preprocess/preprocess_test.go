package preprocess

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"nodesentry/internal/mts"
	"nodesentry/internal/stats"
)

func TestCleanSeriesInterior(t *testing.T) {
	x := []float64{1, math.NaN(), math.NaN(), 4}
	CleanSeries(x)
	want := []float64{1, 2, 3, 4}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-12 {
			t.Fatalf("x = %v, want %v", x, want)
		}
	}
}

func TestCleanSeriesEdges(t *testing.T) {
	x := []float64{math.NaN(), math.NaN(), 5, 6, math.NaN()}
	CleanSeries(x)
	want := []float64{5, 5, 5, 6, 6}
	for i := range want {
		if x[i] != want[i] {
			t.Fatalf("x = %v, want %v", x, want)
		}
	}
}

func TestCleanSeriesAllMissing(t *testing.T) {
	x := []float64{math.NaN(), math.NaN()}
	CleanSeries(x)
	if x[0] != 0 || x[1] != 0 {
		t.Fatalf("all-NaN row should zero out, got %v", x)
	}
}

func TestCleanSeriesIdempotentProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		x := make([]float64, n)
		for i := range x {
			if rng.Float64() < 0.3 {
				x[i] = math.NaN()
			} else {
				x[i] = rng.NormFloat64()
			}
		}
		CleanSeries(x)
		for _, v := range x {
			if math.IsNaN(v) {
				return false
			}
		}
		y := append([]float64(nil), x...)
		CleanSeries(y)
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCleanFrame(t *testing.T) {
	f := &mts.NodeFrame{
		Node:    "n",
		Metrics: []string{"a", "b"},
		Data: [][]float64{
			{1, math.NaN(), 3},
			{math.NaN(), 2, math.NaN()},
		},
		Start: 0, Step: 1,
	}
	Clean(f)
	if mts.CountMissing(f) != 0 {
		t.Error("Clean left NaNs")
	}
	if f.Data[0][1] != 2 {
		t.Errorf("interpolation wrong: %v", f.Data[0])
	}
}

// redFixture builds two frames with: a 3-row "cpu" group, an exact copy
// group "cpu_dup" (should be dropped by dedup), an independent "mem" group,
// and one ungrouped metric.
func redFixture() (map[string]*mts.NodeFrame, []string, map[string][]int) {
	T := 200
	mk := func(seed int64) *mts.NodeFrame {
		rng := rand.New(rand.NewSource(seed))
		base := make([]float64, T)
		indep := make([]float64, T)
		for t := 0; t < T; t++ {
			base[t] = math.Sin(float64(t)/7) + 0.05*rng.NormFloat64()
			indep[t] = math.Cos(float64(t)/3) + 0.05*rng.NormFloat64()
		}
		rows := make([][]float64, 6)
		for r := 0; r < 3; r++ { // cpu cores
			rows[r] = make([]float64, T)
			for t := 0; t < T; t++ {
				rows[r][t] = base[t] * (1 + 0.1*float64(r))
			}
		}
		rows[3] = append([]float64(nil), base...) // cpu_dup: correlated with cpu
		rows[4] = indep                           // mem
		extra := make([]float64, T)
		for t := range extra {
			extra[t] = float64(t % 17)
		}
		rows[5] = extra // ungrouped
		return &mts.NodeFrame{
			Node:    "n",
			Metrics: []string{"cpu0", "cpu1", "cpu2", "cpu_alias", "mem", "extra"},
			Data:    rows, Start: 0, Step: 15,
		}
	}
	frames := map[string]*mts.NodeFrame{"n1": mk(1), "n2": mk(2)}
	names := frames["n1"].Metrics
	groups := map[string][]int{
		"cpu":     {0, 1, 2},
		"cpu_dup": {3},
		"mem":     {4},
	}
	return frames, names, groups
}

func TestPlanReductionDropsDuplicates(t *testing.T) {
	frames, names, groups := redFixture()
	red := PlanReduction(frames, names, groups, 0.99)
	out := red.OutputNames()
	has := func(name string) bool {
		for _, n := range out {
			if n == name {
				return true
			}
		}
		return false
	}
	if !has("cpu") && !has("cpu_dup") {
		t.Error("one of the correlated cpu groups must survive")
	}
	if has("cpu") && has("cpu_dup") {
		t.Errorf("correlated duplicate not dropped: %v", out)
	}
	if !has("mem") {
		t.Errorf("independent metric dropped: %v", out)
	}
	if !has("extra") {
		t.Errorf("ungrouped metric should form a singleton group: %v", out)
	}
}

func TestReductionApply(t *testing.T) {
	frames, names, groups := redFixture()
	red := PlanReduction(frames, names, groups, 0.99)
	f := frames["n1"]
	g := red.Apply(f)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumMetrics() != red.NumOutput() {
		t.Fatalf("reduced frame has %d metrics, plan says %d", g.NumMetrics(), red.NumOutput())
	}
	if g.Len() != f.Len() || g.Start != f.Start {
		t.Error("reduction changed the time axis")
	}
	// The aggregated cpu row must equal the mean of its inputs.
	for i, name := range g.Metrics {
		if name != "cpu" {
			continue
		}
		for _, tt := range []int{0, 50, 199} {
			want := (f.Data[0][tt] + f.Data[1][tt] + f.Data[2][tt]) / 3
			if math.Abs(g.Data[i][tt]-want) > 1e-12 {
				t.Fatalf("aggregation wrong at t=%d: %v vs %v", tt, g.Data[i][tt], want)
			}
		}
	}
}

func TestReductionRatioOnWideCatalog(t *testing.T) {
	// A catalog with heavy per-core + alias expansion should reduce to
	// roughly its semantic count — "about a tenth" in the paper.
	T := 128
	rng := rand.New(rand.NewSource(3))
	numSem := 5
	rowsPerSem := 10
	var names []string
	var rows [][]float64
	groups := map[string][]int{}
	for s := 0; s < numSem; s++ {
		base := make([]float64, T)
		for t := range base {
			base[t] = math.Sin(float64(t)/float64(3+s)) + 0.02*rng.NormFloat64()
		}
		for r := 0; r < rowsPerSem; r++ {
			row := make([]float64, T)
			for t := range row {
				row[t] = base[t]*(1+0.05*float64(r)) + 0.001*rng.NormFloat64()
			}
			groups[groupName(s)] = append(groups[groupName(s)], len(names))
			names = append(names, groupName(s)+"_"+string(rune('a'+r)))
			rows = append(rows, row)
		}
	}
	f := &mts.NodeFrame{Node: "n", Metrics: names, Data: rows, Start: 0, Step: 15}
	red := PlanReduction(map[string]*mts.NodeFrame{"n": f}, names, groups, 0.99)
	if red.NumOutput() > numSem {
		t.Errorf("reduced to %d metrics, want <= %d", red.NumOutput(), numSem)
	}
}

func groupName(s int) string { return "sem" + string(rune('A'+s)) }

func TestStandardizerBasics(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	mkFrame := func(node string, mean, std float64) *mts.NodeFrame {
		row := make([]float64, 1000)
		for i := range row {
			row[i] = mean + std*rng.NormFloat64()
		}
		return &mts.NodeFrame{Node: node, Metrics: []string{"m"}, Data: [][]float64{row}, Start: 0, Step: 1}
	}
	train := map[string]*mts.NodeFrame{
		"a": mkFrame("a", 100, 10),
		"b": mkFrame("b", -50, 5),
	}
	s := FitStandardizer(train, 0.05, 5)
	fa := train["a"].Clone()
	s.Apply(fa)
	// Trimming 5% of each Gaussian tail shrinks the fitted std to ~0.79 of
	// the true std, so standardized data lands near std 1.26 by design.
	m, sd := stats.MeanStd(fa.Data[0])
	if math.Abs(m) > 0.1 || sd < 0.9 || sd > 1.6 {
		t.Errorf("standardized mean/std = %v/%v, want ~0/~1.26", m, sd)
	}
}

func TestStandardizerClipsAndHandlesConstant(t *testing.T) {
	f := &mts.NodeFrame{
		Node:    "a",
		Metrics: []string{"m", "const"},
		Data: [][]float64{
			{0, 0, 0, 0, 0, 0, 0, 0, 0, 1000}, // huge outlier
			{7, 7, 7, 7, 7, 7, 7, 7, 7, 7},
		},
		Start: 0, Step: 1,
	}
	s := FitStandardizer(map[string]*mts.NodeFrame{"a": f.Clone()}, 0.05, 5)
	s.Apply(f)
	for _, v := range f.Data[0] {
		if v > 5 || v < -5 {
			t.Errorf("value %v escaped clip", v)
		}
	}
	for _, v := range f.Data[1] {
		if v != 0 {
			t.Errorf("constant metric standardized to %v, want 0", v)
		}
	}
}

func TestStandardizerUnseenNodeFallsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	row := make([]float64, 500)
	for i := range row {
		row[i] = 10 + 2*rng.NormFloat64()
	}
	train := map[string]*mts.NodeFrame{
		"a": {Node: "a", Metrics: []string{"m"}, Data: [][]float64{append([]float64(nil), row...)}, Start: 0, Step: 1},
	}
	s := FitStandardizer(train, 0.05, 5)
	unseen := &mts.NodeFrame{Node: "zz", Metrics: []string{"m"}, Data: [][]float64{append([]float64(nil), row...)}, Start: 0, Step: 1}
	s.Apply(unseen)
	m, _ := stats.MeanStd(unseen.Data[0])
	if math.Abs(m) > 0.3 {
		t.Errorf("fallback standardization mean = %v, want ~0", m)
	}
}

func TestSegment(t *testing.T) {
	f := &mts.NodeFrame{
		Node:    "n",
		Metrics: []string{"m"},
		Data:    [][]float64{make([]float64, 100)},
		Start:   0, Step: 10,
	}
	spans := []mts.JobSpan{
		{Job: 1, Start: 0, End: 300},               // 30 samples
		{Job: mts.IdleJobID, Start: 300, End: 350}, // 5 samples, dropped at minLen 10
		{Job: 2, Start: 350, End: 1000},            // 65 samples
	}
	segs := Segment(f, spans, 10)
	if len(segs) != 2 {
		t.Fatalf("got %d segments, want 2: %v", len(segs), segs)
	}
	if segs[0].Job != 1 || segs[0].Lo != 0 || segs[0].Hi != 30 {
		t.Errorf("segment 0 = %+v", segs[0])
	}
	if segs[1].Job != 2 || segs[1].Lo != 35 || segs[1].Hi != 100 {
		t.Errorf("segment 1 = %+v", segs[1])
	}
}

func TestEqualLengthChop(t *testing.T) {
	f := &mts.NodeFrame{
		Node:    "n",
		Metrics: []string{"m"},
		Data:    [][]float64{make([]float64, 105)},
		Start:   0, Step: 10,
	}
	segs := EqualLengthChop(f, 25)
	if len(segs) != 4 {
		t.Fatalf("got %d chunks, want 4", len(segs))
	}
	for i, s := range segs {
		if s.Len() != 25 {
			t.Errorf("chunk %d has length %d", i, s.Len())
		}
	}
	if EqualLengthChop(f, 0) != nil {
		t.Error("chunk 0 should yield nil")
	}
}

// TestStandardizerApplyAllocatesNothing pins that standardizing a window,
// which the scoring path does once per scored window, runs on the calling
// goroutine without an allocation.
func TestStandardizerApplyAllocatesNothing(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	rng := rand.New(rand.NewSource(6))
	frame := &mts.NodeFrame{Node: "a", Start: 0, Step: 1}
	for m := 0; m < 20; m++ {
		row := make([]float64, 200)
		for i := range row {
			row[i] = float64(m) + rng.NormFloat64()
		}
		frame.Metrics = append(frame.Metrics, "m")
		frame.Data = append(frame.Data, row)
	}
	s := FitStandardizer(map[string]*mts.NodeFrame{"a": frame}, 0.05, 5)
	win := frame.Clone()
	for m := range win.Data {
		win.Data[m] = win.Data[m][:20]
	}
	if allocs := testing.AllocsPerRun(20, func() { s.Apply(win) }); allocs != 0 {
		t.Fatalf("Standardizer.Apply on a 20x20 window: %v allocations, want 0", allocs)
	}
}
