// Package satori is a from-scratch reproduction of "SATORI: Efficient and
// Fair Resource Partitioning by Sacrificing Short-Term Benefits for
// Long-Term Gains" (Roy, Patel, Tiwari — ISCA 2021).
//
// SATORI partitions shared CMP resources (cores, LLC ways, memory
// bandwidth, optionally a power cap) among co-located jobs, actively
// co-optimizing two conflicting goals — system throughput and fairness —
// with a Bayesian-optimization engine whose objective function dynamically
// re-prioritizes the goals over time (temporarily trading one goal to gain
// more on both in the long run).
//
// Because the paper's Intel RDT hardware control surface (CAT/MBA/RAPL,
// pqos) is not assumed, the repository ships a faithful simulated testbed
// (see DESIGN.md for the substitution analysis): an analytical multicore
// performance model with program phases, synthetic profiles for all 17
// benchmarks the paper evaluates (PARSEC, CloudSuite, ECP), an RDT-shaped
// control plane, every competing policy (Random, dCAT, CoPart, PARTIES)
// and the brute-force Oracles, plus a harness that regenerates every
// figure of the paper's evaluation.
//
// # Quick start
//
//	jobs, _ := satori.Suite(satori.SuitePARSEC)
//	sess, _ := satori.NewSession(satori.SessionConfig{Workloads: jobs[:5]})
//	for i := 0; i < 600; i++ { // 60 seconds at 10 Hz
//		st, _ := sess.Step()
//		_ = st // per-interval throughput, fairness, partitions
//	}
//	fmt.Println(sess.Summary())
//
// The public API in this package is a thin facade — sessions, policies by
// name, and the paper's workloads and mixes; the implementation lives in
// internal/ packages (core = the SATORI engine, sim = the testbed,
// bo/gp/linalg = the optimizer stack, policies/* = baselines, harness =
// the experiment drivers, which cmd/experiments runs).
package satori
