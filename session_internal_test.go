package satori

import (
	"testing"

	"satori/internal/metrics"
)

// loopTM/loopFM expose the loop's resolved metric choices to the
// metric-selection regression tests.
func (s *Session) loopTM() metrics.ThroughputMetric { tm, _ := s.loop.Objectives(); return tm }
func (s *Session) loopFM() metrics.FairnessMetric   { _, fm := s.loop.Objectives(); return fm }

// Regression for the metric-selection aliasing bug: GeoMeanSpeedup and
// JainIndex used to share the enum zero value with "unset", so asking
// for exactly this pairing was silently rewritten to SumIPS + Jain.
func TestNewSessionHonorsExplicitMetrics(t *testing.T) {
	jobs, err := Suite(SuitePARSEC)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(SessionConfig{
		Workloads:        jobs[:3],
		Seed:             7,
		ThroughputMetric: metrics.GeoMeanSpeedup,
		FairnessMetric:   metrics.JainIndex,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sess.loopTM() != metrics.GeoMeanSpeedup {
		t.Errorf("throughput metric rewritten to %v, want geomean", sess.loopTM())
	}
	if sess.loopFM() != metrics.JainIndex {
		t.Errorf("fairness metric rewritten to %v, want jain", sess.loopFM())
	}
}

// The zero-valued config must still resolve to the paper's evaluation
// defaults (SumIPS + JainIndex), now via the Default* sentinels.
func TestNewSessionDefaultMetrics(t *testing.T) {
	jobs, err := Suite(SuitePARSEC)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(SessionConfig{Workloads: jobs[:2], Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if sess.loopTM() != metrics.SumIPS || sess.loopFM() != metrics.JainIndex {
		t.Errorf("defaults resolved to %v/%v, want sum-ips/jain", sess.loopTM(), sess.loopFM())
	}
}
