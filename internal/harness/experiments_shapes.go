package harness

import (
	"fmt"

	"satori/internal/control"
	"satori/internal/sim"
	"satori/internal/stats"
	"satori/internal/trace"
	"satori/internal/workloads"
)

// suiteSpec is the one place experiment options become a SuiteSpec:
// every suite row, sweep point and the replication row runs what this
// returns, so the worker budget and the cell cache reach all of them.
// limit is the row's own mix cap (0: every mix the paper uses).
func suiteSpec(opt ExpOptions, suite string, limit int, policies []NamedFactory) (SuiteSpec, error) {
	mixes, err := workloads.PaperMixes(suite)
	if err != nil {
		return SuiteSpec{}, err
	}
	if limit == 0 {
		limit = len(mixes)
	}
	return SuiteSpec{
		Mixes:    mixes[:opt.limitMixes(limit)],
		Policies: policies,
		Base:     DefaultSuiteBase(opt.Seed, opt.Ticks),
		Workers:  opt.Workers,
		Cache:    opt.Cache,
	}, nil
}

// suiteRow runs a policy line-up over a suite's paper mixes; its outcome
// is the oracle-normalized *SuiteResult.
type suiteRow struct {
	suite  string
	limit  int
	lineup []NamedFactory
	tables tables
	notes  func(*SuiteResult) []string
}

func (s suiteRow) measure(opt ExpOptions) (*SuiteResult, error) {
	spec, err := suiteSpec(opt, s.suite, s.limit, s.lineup)
	if err != nil {
		return nil, err
	}
	return RunSuite(spec)
}

func (s suiteRow) render(rep *Report, res *SuiteResult) {
	for _, tbl := range s.tables {
		rep.Tables = append(rep.Tables, tbl(res))
	}
	if s.notes != nil {
		rep.Notes = append(rep.Notes, s.notes(res)...)
	}
}

func (s suiteRow) report(opt ExpOptions, rep *Report) error {
	return report(opt, rep, s.measure, s.render)
}

// sweepPoint is one value of a swept parameter: its table label and
// what it changes in the row's SuiteSpec.
type sweepPoint struct {
	label string
	tweak func(*SuiteSpec)
}

// sweepRow runs one PARSEC suite per point. Points fan out, and each
// point's suite gets the remaining worker budget. The table has one line
// per point: its label, then cells(means).
type sweepRow struct {
	limit  int
	lineup []NamedFactory
	points func(ExpOptions) ([]sweepPoint, error)
	header []string
	cells  func([]Mean) []string
	notes  func([][]Mean) []string
}

// sweepOutcome is, per point, its label and the across-mix Means in
// line-up order.
type sweepOutcome struct {
	labels []string
	means  [][]Mean
}

func (s sweepRow) measure(opt ExpOptions) (sweepOutcome, error) {
	pts, err := s.points(opt)
	if err != nil {
		return sweepOutcome{}, err
	}
	out := sweepOutcome{make([]string, len(pts)), make([][]Mean, len(pts))}
	outer, inner := splitWorkers(opt.Workers, len(pts))
	opt.Workers = inner
	err = forEach(outer, len(pts), func(i int) error {
		spec, err := suiteSpec(opt, workloads.SuitePARSEC, s.limit, s.lineup)
		if err != nil {
			return err
		}
		pts[i].tweak(&spec)
		res, err := RunSuite(spec)
		if err != nil {
			return err
		}
		out.labels[i] = pts[i].label
		means := res.Means()
		for _, name := range res.Policies {
			out.means[i] = append(out.means[i], means[name])
		}
		return nil
	})
	return out, err
}

func (s sweepRow) render(rep *Report, out sweepOutcome) {
	tbl := trace.NewTable(s.header...)
	for i, m := range out.means {
		tbl.AddRow(append([]string{out.labels[i]}, s.cells(m)...)...)
	}
	rep.Tables = append(rep.Tables, tbl)
	if s.notes != nil {
		rep.Notes = append(rep.Notes, s.notes(out.means)...)
	}
}

func (s sweepRow) report(opt ExpOptions, rep *Report) error {
	return report(opt, rep, s.measure, s.render)
}

// mixZeroJobs returns the job mix the paper uses for its internal-
// behavior figures: blackscholes, canneal, fluidanimate, freqmine,
// streamcluster — PARSEC mix 0 in lexicographic order.
func mixZeroJobs() ([]*sim.Profile, error) {
	return workloads.Select("", workloads.SuitePARSEC, 0)
}

// tracedRow runs SATORI with and without dynamic prioritization on
// PARSEC mix 0, keeping the per-tick traces; its outcome is the pair of
// results (satori, satori-static).
type tracedRow struct {
	render func(rep *Report, pair []*Result)
}

func (tracedRow) measure(opt ExpOptions) ([]*Result, error) {
	jobs, err := mixZeroJobs()
	if err != nil {
		return nil, err
	}
	policies := lineup("satori", "satori-static")
	pair := make([]*Result, len(policies))
	err = forEach(opt.Workers, len(pair), func(i int) error {
		spec := DefaultSuiteBase(opt.Seed, opt.Ticks)
		spec.Profiles = jobs
		spec.Policy = policies[i].Factory
		spec.KeepTrace = true
		res, err := Run(spec)
		pair[i] = res
		return err
	})
	return pair, err
}

func (t tracedRow) report(opt ExpOptions, rep *Report) error {
	return report(opt, rep, t.measure, t.render)
}

// scenarioRun is one policy's outcome on a scenario: the loop's summary
// plus the per-tick series recovery times are read from.
type scenarioRun struct {
	policy     string
	summary    control.Summary
	objective  []float64 // 0.5·T + 0.5·F
	attainment []float64 // SLO attainment
}

// scenarioRow drives one control loop per policy over the same jobs on
// the same machine, tick by tick.
type scenarioRow struct {
	machine sim.MachineSpec
	jobs    func() ([]*sim.Profile, error)
	lineup  []NamedFactory
	// goalSwitch names the one policy that runs with violation-driven
	// goal switching armed.
	goalSwitch string
	// midRun, when set, is applied after tick Ticks/2.
	midRun func(*control.Loop) error
	render func(rep *Report, runs []scenarioRun)
}

func (s scenarioRow) measure(opt ExpOptions) ([]scenarioRun, error) {
	jobs, err := s.jobs()
	if err != nil {
		return nil, err
	}
	runs := make([]scenarioRun, len(s.lineup))
	err = forEach(opt.Workers, len(runs), func(i int) error {
		run, err := s.run(opt, jobs, s.lineup[i])
		if err != nil {
			return fmt.Errorf("%s: %w", s.lineup[i].Name, err)
		}
		runs[i] = run
		return nil
	})
	return runs, err
}

func (s scenarioRow) run(opt ExpOptions, jobs []*sim.Profile, nf NamedFactory) (scenarioRun, error) {
	run := scenarioRun{policy: nf.Name}
	loop, _, err := bootSim(s.machine, jobs, sim.Options{Seed: opt.Seed}, nil, nf.Factory,
		control.Options{SLO: control.SLOOptions{GoalSwitch: nf.Name == s.goalSwitch}})
	if err != nil {
		return run, err
	}
	for tick := 1; tick <= opt.Ticks; tick++ {
		st, err := loop.Step()
		if err != nil {
			return run, err
		}
		run.objective = append(run.objective, 0.5*st.Throughput+0.5*st.Fairness)
		run.attainment = append(run.attainment, st.SLOAttainment)
		if tick == opt.Ticks/2 && s.midRun != nil {
			if err := s.midRun(loop); err != nil {
				return run, err
			}
		}
	}
	run.summary = loop.Summary()
	return run, nil
}

func (s scenarioRow) report(opt ExpOptions, rep *Report) error {
	return report(opt, rep, s.measure, s.render)
}

// recoveryTicks scans xs (one value per tick) for the first trailing
// win-tick window, lying entirely after tick `from`, whose mean reaches
// level; it returns how many ticks after `from` that window ends, or -1
// when none does.
func recoveryTicks(xs []float64, from, win int, level float64) int {
	for tick := from + win; tick <= len(xs); tick++ {
		sum := 0.0
		for _, x := range xs[tick-win : tick] {
			sum += x
		}
		if sum/float64(win) >= level {
			return tick - from
		}
	}
	return -1
}

// runMean is the running (Welford) mean of xs — the accumulation the
// control loop's own summary uses.
func runMean(xs []float64) float64 {
	var w stats.Welford
	for _, x := range xs {
		w.Add(x)
	}
	return w.Mean()
}

// fmtRecovery renders a recovery time given in ticks (negative: never).
func fmtRecovery(ticks int) string {
	if ticks < 0 {
		return "never"
	}
	return fmt.Sprintf("%.1fs", float64(ticks)*sim.TickSeconds)
}

// seq is a row made of several shapes reported in order (Fig. 14: a
// traced run, then a suite).
type seq []shape

func (s seq) report(opt ExpOptions, rep *Report) error {
	for _, part := range s {
		if err := part.report(opt, rep); err != nil {
			return err
		}
	}
	return nil
}

// oneOff is a hand-written driver that fits no shared shape: measure
// returns the row's typed outcome and render formats it.
type oneOff[O any] struct {
	measure func(ExpOptions) (O, error)
	render  func(*Report, O)
}

func (o oneOff[O]) report(opt ExpOptions, rep *Report) error {
	return report(opt, rep, o.measure, o.render)
}

// report is every shape's two steps: measure the typed outcome, then
// render it.
func report[O any](opt ExpOptions, rep *Report, measure func(ExpOptions) (O, error), render func(*Report, O)) error {
	out, err := measure(opt)
	if err != nil {
		return err
	}
	render(rep, out)
	return nil
}
