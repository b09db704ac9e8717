package main

import "fmt"

// layerMetrics reads the control/core/gp/rdt/cluster/slo metrics off a
// traced session that has run: span medians and shares from its tracer,
// counters from its summary and engine. Times are scaled to the reference
// host by the session's median speed factor (see meter.go). decideTailUs is
// the median of the last 500 Decides: the probes replay the state the
// session ended in, so the budget check compares them with the Decides at
// its end, not with the whole run's median (the pool grows and shrinks with
// the incumbent's neighbourhood).
func layerMetrics(sr *shapeRun) (out map[string]float64, decideTailUs float64, err error) {
	tr := sr.tr
	steps := tr.durations(spanOp)
	decides := tr.durations(spanDecide)
	if len(steps) == 0 || len(decides) == 0 {
		return nil, 0, fmt.Errorf("layers: traced session recorded %d steps and %d decides", len(steps), len(decides))
	}
	stepSum := sum(steps)
	samples := append(tr.durations(spanSample), tr.durations(spanSampleFast)...)
	applies := tr.durations(spanApply)
	rdtSum := sum(samples) + sum(applies)
	for _, k := range []spanKind{spanMeasure, spanChurn, spanSkipFast} {
		rdtSum += sum(tr.durations(k))
	}
	summary := sr.sess.Summary()
	ticks := float64(max(1, summary.Ticks))
	out = map[string]float64{
		"control.step_self_us":       sr.speed * median(tr.selfTimes(spanOp)) / 1e3,
		"control.step_p99_us":        sr.speed * quantile(steps, 0.99) / 1e3,
		"control.sampled_tick_ratio": float64(summary.SampledTicks) / ticks,
		"control.idle_tick_ratio":    float64(summary.IdleTicks) / ticks,
		"control.rejected_applies":   float64(summary.RejectedApplies),
		"control.bad_samples":        float64(summary.BadSamples),
		"core.decide_p50_us":         sr.speed * median(decides) / 1e3,
		"core.decide_p99_us":         sr.speed * quantile(decides, 0.99) / 1e3,
		"core.decide_share":          sum(decides) / stepSum,
		"rdt.sample_ns":              sr.speed * median(samples),
		"rdt.apply_ns":               sr.speed * median(applies),
		"rdt.apply_calls_per_tick":   float64(len(applies)) / float64(len(steps)),
		"rdt.share":                  rdtSum / stepSum,
		"cluster.regroups":           float64(summary.Regroups),
		"slo.violated_tick_ratio":    float64(summary.SLOViolatedTicks) / ticks,
		"slo.goal_switches":          float64(summary.GoalSwitches),
	}
	decideTailUs = sr.speed * median(decides[max(0, len(decides)-500):]) / 1e3
	eng, _ := engineOf(sr.sess)
	if eng == nil {
		return nil, 0, fmt.Errorf("layers: session policy %q has no SATORI engine", sr.sess.Policy().Name())
	}
	// Engine counters cover the engine's whole life, warm-up included
	// (the clustered policy rebuilds its engine on every regroup, so a
	// life can be shorter than the session).
	gps := eng.GPStats()
	updates := float64(max(1, gps.Refits+gps.Extends+gps.TargetSolves))
	out["core.exploit_ratio"] = float64(eng.Exploits()) / updates
	out["core.window_len"] = float64(min(64, eng.Records().Len()))
	out["core.fit_failures"] = float64(eng.FitFailures())
	out["core.acq_failures"] = float64(eng.AcquisitionFailures())
	out["gp.refits_per_ktick"] = 1000 * float64(gps.Refits) / updates
	out["gp.extends_per_ktick"] = 1000 * float64(gps.Extends) / updates
	out["gp.target_solves_per_ktick"] = 1000 * float64(gps.TargetSolves) / updates
	return out, decideTailUs, nil
}

// budgetCoverage is the share of a median Decide (over the session's last
// 500) that the probes account for: one target re-solve, one prediction
// sweep over the window, one candidate fill, one batched prediction and one
// acquisition pass.
func budgetCoverage(probes map[string]float64, decideP50us float64) float64 {
	perTick := probes["gp.update_targets_us"] + probes["gp.predict_mean_window_us"] +
		probes["resource.candidate_fill_us"] + probes["gp.predict_batch_us"] + probes["bo.suggest_batch_us"]
	return perTick / decideP50us
}
