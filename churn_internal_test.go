package satori

import (
	"errors"
	"testing"

	"satori/internal/core"
	"satori/internal/resource"
)

// churnSession builds a 2-job session whose policy is a SATORI engine and
// runs it long enough to accumulate GP observations.
func churnSession(t *testing.T) *Session {
	t.Helper()
	jobs, err := Suite(SuitePARSEC)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(SessionConfig{
		Workloads: jobs[:2],
		Seed:      11,
		Policy: func(p Platform) (Policy, error) {
			return core.New(p.Space(), core.Options{Seed: 11})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if _, err := sess.Step(); err != nil {
			t.Fatal(err)
		}
	}
	return sess
}

// TestChurnReinitIncremental is the membership-change contract: after
// AddWorkload / RemoveWorkload the isolated baselines are re-measured at
// the new job count, the engine is a fresh instance with an empty
// observation window (no stale-job observations can leak into the GP — its
// inputs are per-(resource, job) coordinates), and the next observation
// carries BaselineReset.
func TestChurnReinitIncremental(t *testing.T) {
	sess := churnSession(t)
	jobs, err := Suite(SuitePARSEC)
	if err != nil {
		t.Fatal(err)
	}

	before, ok := sess.loop.Policy().(*core.Engine)
	if !ok {
		t.Fatalf("policy is %T, want *core.Engine", sess.loop.Policy())
	}
	if before.Records().Len() == 0 {
		t.Fatal("warm-up produced no observations; test is vacuous")
	}

	if err := sess.AddWorkload(jobs[2]); err != nil {
		t.Fatal(err)
	}
	if sess.NumJobs() != 3 || sess.SpaceInfo().Jobs != 3 {
		t.Fatalf("job set after AddWorkload: %d jobs, space %d", sess.NumJobs(), sess.SpaceInfo().Jobs)
	}
	if len(sess.loop.Isolated()) != 3 {
		t.Fatalf("isolated baselines not re-measured: %d entries, want 3", len(sess.loop.Isolated()))
	}
	after, ok := sess.loop.Policy().(*core.Engine)
	if !ok {
		t.Fatalf("rebuilt policy is %T, want *core.Engine", sess.loop.Policy())
	}
	if after == before {
		t.Fatal("engine not rebuilt after AddWorkload")
	}
	if n := after.Records().Len(); n != 0 {
		t.Fatalf("observation window not reset: %d stale records", n)
	}
	st, err := sess.Step()
	if err != nil {
		t.Fatal(err)
	}
	if !st.BaselineReset {
		t.Error("first observation after AddWorkload must carry BaselineReset")
	}
	if len(st.IPS) != 3 || len(st.Speedups) != 3 {
		t.Fatalf("post-churn status not re-dimensioned: %d IPS", len(st.IPS))
	}
	for i := 0; i < 10; i++ {
		if _, err := sess.Step(); err != nil {
			t.Fatal(err)
		}
	}

	// Departure path: same contract in the shrink direction.
	shrinkBefore := sess.loop.Policy().(*core.Engine)
	if err := sess.RemoveWorkload(1); err != nil {
		t.Fatal(err)
	}
	if sess.NumJobs() != 2 || len(sess.loop.Isolated()) != 2 {
		t.Fatalf("after RemoveWorkload: %d jobs, %d baselines", sess.NumJobs(), len(sess.loop.Isolated()))
	}
	shrinkAfter := sess.loop.Policy().(*core.Engine)
	if shrinkAfter == shrinkBefore || shrinkAfter.Records().Len() != 0 {
		t.Fatal("engine not freshly rebuilt after RemoveWorkload")
	}
	st, err = sess.Step()
	if err != nil {
		t.Fatal(err)
	}
	if !st.BaselineReset || len(st.IPS) != 2 {
		t.Fatalf("post-departure observation wrong: reset=%v len=%d", st.BaselineReset, len(st.IPS))
	}
}

// TestChurnRejectsStaleConfig: a config captured before churn must be
// rejected by the platform with the typed shape error, end to end
// through the session's platform.
func TestChurnRejectsStaleConfig(t *testing.T) {
	sess := churnSession(t)
	jobs, err := Suite(SuitePARSEC)
	if err != nil {
		t.Fatal(err)
	}
	stale := sess.platform.Current()
	if err := sess.AddWorkload(jobs[2]); err != nil {
		t.Fatal(err)
	}
	var shapeErr *resource.ConfigShapeError
	if err := sess.platform.Apply(stale); !errors.As(err, &shapeErr) {
		t.Fatalf("stale config accepted after churn: %v", err)
	}
	// The session keeps stepping regardless: Step ignores a failed Apply
	// and keeps the live configuration.
	if _, err := sess.Step(); err != nil {
		t.Fatal(err)
	}
}

// TestChurnDefaultPolicyRebuild covers the default rebuild closure (no
// custom factory): churn must rebuild the default engine on the live
// space too.
func TestChurnDefaultPolicyRebuild(t *testing.T) {
	jobs, err := Suite(SuitePARSEC)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(SessionConfig{Workloads: jobs[:2], Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := sess.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if err := sess.AddWorkload(jobs[3]); err != nil {
		t.Fatal(err)
	}
	eng, ok := sess.loop.Policy().(*core.Engine)
	if !ok {
		t.Fatalf("default rebuild produced %T", sess.loop.Policy())
	}
	if eng.Records().Len() != 0 {
		t.Fatal("default rebuild kept stale observations")
	}
	if _, err := sess.Step(); err != nil {
		t.Fatal(err)
	}
}
