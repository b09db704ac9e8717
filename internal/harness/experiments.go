package harness

import (
	"fmt"
	"strings"

	"satori/internal/trace"
)

// ExpOptions sizes an experiment reproduction. The zero value requests
// the full paper-scale configuration; benches and smoke tests shrink
// Ticks and MixLimit.
type ExpOptions struct {
	// Ticks is the per-run length in 100 ms intervals (default 600).
	Ticks int
	// Seed drives all randomness (default 42).
	Seed uint64
	// MixLimit caps how many job mixes a suite experiment runs
	// (0 = all mixes the paper uses).
	MixLimit int
	// Workers bounds each experiment's fan-out over its independent
	// run units (0 = one worker per CPU, 1 = serial). Any worker count
	// produces byte-identical reports; cmd/experiments exposes this as
	// -parallel.
	Workers int
	// Cache, when non-nil, memoizes suite cells on disk so repeated
	// reproductions skip re-simulating unchanged (policy, mix, seed)
	// cells. No command sets it: its key misses changes to the control
	// loop's draws, so a warm cache can serve stale cells (ROADMAP 17).
	Cache *CellCache
}

func (o ExpOptions) fill() ExpOptions {
	if o.Ticks <= 0 {
		o.Ticks = 600
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	return o
}

func (o ExpOptions) limitMixes(n int) int {
	if o.MixLimit > 0 && o.MixLimit < n {
		return o.MixLimit
	}
	return n
}

// Report is the textual reproduction of one paper figure or table.
type Report struct {
	// ID is the experiment identifier ("fig7", "scalability", ...).
	ID string
	// Title describes what the paper figure shows.
	Title string
	// Tables hold the reproduced rows/series.
	Tables []*trace.Table
	// Notes record observations, including divergences from the paper.
	Notes []string
}

// String renders the report.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	for _, t := range r.Tables {
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Experiment is a runnable figure reproduction.
type Experiment struct {
	ID    string
	Title string
	Run   func(ExpOptions) (*Report, error)
}

// Experiments returns the full registry, ordered as in the paper.
func Experiments() []Experiment {
	rows := experimentTable()
	out := make([]Experiment, len(rows))
	for i, r := range rows {
		out[i] = Experiment{ID: r.id, Title: r.title, Run: r.run}
	}
	return out
}

// FindExperiment looks an experiment up by ID.
func FindExperiment(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// row is one line of the experiment table: what a figure is called, the
// shape that measures and renders it, and the notes its report closes
// with (what the paper shows, how to read the tables).
type row struct {
	id, title string
	shape     shape
	notes     []string
}

// shape is how a row produces its report: measure a typed numeric
// outcome, then render it into rep. The four shared shapes
// (experiments_shapes.go) and oneOff each have a typed measure beside
// this, which is what the claims tier reads.
type shape interface {
	report(opt ExpOptions, rep *Report) error
}

// run is the one runner: it alone resolves the option defaults and
// stamps the report with the row's ID, title and closing notes.
func (r row) run(opt ExpOptions) (*Report, error) {
	rep := &Report{ID: r.id, Title: r.title}
	if err := r.shape.report(opt.fill(), rep); err != nil {
		return nil, err
	}
	rep.Notes = append(rep.Notes, r.notes...)
	return rep, nil
}

// oracleNote summarizes the oracle reference levels.
func oracleNote(res *SuiteResult) []string {
	var t, f float64
	for _, r := range res.OracleRaw {
		t += r.MeanThroughput
		f += r.MeanFairness
	}
	n := float64(len(res.OracleRaw))
	return []string{fmt.Sprintf("Balanced Oracle reference (absolute, run-mean): throughput %.3f, fairness %.3f", t/n, f/n)}
}

// lead is policy a's advantage over policy b in %-points of throughput
// and fairness.
func lead(res *SuiteResult, a, b string) (dT, dF float64) {
	m := res.Means()
	return (m[a].PctThroughput - m[b].PctThroughput) * 100, (m[a].PctFairness - m[b].PctFairness) * 100
}

// resourcesBenefit is each restricted SATORI's lead over the baseline
// that manages the same resources.
func resourcesBenefit(res *SuiteResult) []string {
	llcT, llcF := lead(res, "satori-llc", "dcat")
	bwT, bwF := lead(res, "satori-llc+bw", "copart")
	return []string{
		fmt.Sprintf("satori-llc vs dcat: %+.1f T pts, %+.1f F pts (paper: +4/+5)", llcT, llcF),
		fmt.Sprintf("satori-llc+bw vs copart: %+.1f T pts, %+.1f F pts (paper: +7/+4)", bwT, bwF)}
}

func initAdvantage(res *SuiteResult) []string {
	dT, dF := lead(res, "good-init", "random-init")
	return []string{fmt.Sprintf("good-init advantage: %+.1f T pts, %+.1f F pts (paper: 1-3%% outcome variation)", dT, dF)}
}

func fig19Advantage(res *SuiteResult) []string {
	m := res.Means()
	dw, ds := m["satori (prioritize weaker)"], m["prioritize stronger"]
	return []string{fmt.Sprintf("combined-score advantage of prioritizing the weaker goal: %+.1f%% points (paper: ~5%%)",
		((dw.PctThroughput+dw.PctFairness)-(ds.PctThroughput+ds.PctFairness))/2*100)}
}

// meansTable renders a SuiteResult's across-mix means in policy order.
func meansTable(res *SuiteResult) *trace.Table {
	tbl := trace.NewTable("policy", "throughput %oracle", "fairness %oracle", "worst-job %oracle")
	means := res.Means()
	for _, name := range res.Policies {
		m := means[name]
		tbl.AddRow(name, trace.Pct(m.PctThroughput), trace.Pct(m.PctFairness), trace.Pct(m.PctWorst))
	}
	return tbl
}

// worstMeansTable is Fig. 9's across-mix average of the worst job.
func worstMeansTable(res *SuiteResult) *trace.Table {
	means := res.Means()
	tbl := trace.NewTable("policy", "mean worst-job %oracle")
	for _, name := range res.Policies {
		tbl.AddRow(name, trace.Pct(means[name].PctWorst))
	}
	return tbl
}

func pctThroughput(s MixScore) float64 { return s.PctThroughput }
func pctFairness(s MixScore) float64   { return s.PctFairness }
func pctWorst(s MixScore) float64      { return s.PctWorst }

// perMix renders one score of every policy per mix, mixes sorted by
// SATORI's throughput as the paper sorts them.
func perMix(value func(MixScore) float64) func(*SuiteResult) *trace.Table {
	return func(res *SuiteResult) *trace.Table {
		tbl := trace.NewTable(append([]string{"mix", "workloads"}, res.Policies...)...)
		for _, mixIdx := range res.MixOrder("satori") {
			var row []string
			for _, name := range res.Policies {
				sc, _ := res.ScoreFor(name, mixIdx) // every policy ran every mix
				if row == nil {
					row = []string{fmt.Sprintf("%d", mixIdx), strings.Join(shortNames(sc.MixNames), "+")}
				}
				row = append(row, trace.Pct(value(sc)))
			}
			tbl.AddRow(row...)
		}
		return tbl
	}
}

// shortNames abbreviates benchmark names for mix labels.
func shortNames(names []string) []string {
	out := make([]string, len(names))
	for i, n := range names {
		if len(n) > 5 {
			n = n[:5]
		}
		out[i] = n
	}
	return out
}

// pctCells renders a single-policy sweep point; pairCells one whose
// line-up is (satori, parties).
func pctCells(m []Mean) []string {
	return []string{trace.Pct(m[0].PctThroughput), trace.Pct(m[0].PctFairness)}
}

func pairCells(m []Mean) []string {
	return []string{trace.Pct(m[0].PctThroughput), trace.Pct(m[1].PctThroughput), trace.Pct(m[0].PctFairness), trace.Pct(m[1].PctFairness)}
}

// timeline renders about 15 evenly spaced rows of per-tick series: the
// time, then one cell per column.
func timeline(header []string, time []float64, cols ...[]float64) *trace.Table {
	tbl := trace.NewTable(header...)
	for i := 0; i < len(time); i += max(len(time)/15, 1) {
		row := []string{fmt.Sprintf("%.1fs", time[i])}
		for _, col := range cols {
			row = append(row, trace.F(col[i]))
		}
		tbl.AddRow(row...)
	}
	return tbl
}
