package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"satori/internal/metrics"
	"satori/internal/sim"
)

// cacheSchemaVersion is baked into every cell key. Bump it whenever the
// Result schema, the simulator's model arithmetic, or the control loop's
// RNG consumption changes — any of those silently invalidates every
// previously cached cell.
const cacheSchemaVersion = 1

// CellCache memoizes suite cell results (one policy × mix × seed run) on
// disk, keyed by a content hash of everything that determines the run's
// outcome: machine spec, full workload profiles, policy identity, seed,
// ticks, noise, metric choices, and the cache schema version. Because
// runs are deterministic functions of that tuple, replaying a suite with
// a warm cache returns byte-identical results without re-simulating.
//
// Contract notes:
//   - Policies are identified by NAME. Two factories registered under the
//     same name but building differently configured policies would alias;
//     every lineup in this package uses distinct names for distinct
//     configurations, and custom callers must do the same.
//   - Cells with KeepTrace bypass the cache (the per-tick trace is not
//     serialized), as do cells with TrackOracleDistance unless the oracle
//     options are part of the supplied policy identity.
//   - Results round-trip exactly: encoding/json emits float64 in
//     shortest-round-trip form, so a cache hit is bit-identical to the
//     run it replaced.
type CellCache struct {
	dir                 string
	hits, misses, skips atomic.Int64
}

// NewCellCache opens (creating if needed) a cache directory.
func NewCellCache(dir string) (*CellCache, error) {
	if dir == "" {
		return nil, fmt.Errorf("harness: cell cache needs a directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("harness: cell cache: %w", err)
	}
	return &CellCache{dir: dir}, nil
}

// cellKey is the canonical hashed identity of one suite cell. Every
// field feeds the hash through deterministic JSON encoding.
type cellKey struct {
	Schema     int
	Machine    sim.MachineSpec
	Profiles   []*sim.Profile
	PolicyID   string
	Seed       uint64
	Ticks      int
	NoiseSigma float64
	Throughput metrics.ThroughputMetric
	Fairness   metrics.FairnessMetric
}

// key derives the content hash for spec under policyID.
func (c *CellCache) key(spec RunSpec, policyID string) (string, error) {
	machine := sim.DefaultMachine()
	if spec.Machine != nil {
		machine = *spec.Machine
	}
	ticks := spec.Ticks
	if ticks <= 0 {
		ticks = 600
	}
	blob, err := json.Marshal(cellKey{
		Schema:     cacheSchemaVersion,
		Machine:    machine,
		Profiles:   spec.Profiles,
		PolicyID:   policyID,
		Seed:       spec.Seed,
		Ticks:      ticks,
		NoiseSigma: spec.NoiseSigma,
		Throughput: spec.Metrics.Throughput,
		Fairness:   spec.Metrics.Fairness,
	})
	if err != nil {
		return "", fmt.Errorf("harness: cell cache key: %w", err)
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:]), nil
}

// Run executes spec through the cache: a hit returns the stored result
// without simulating; a miss runs the cell and stores it. Cells the
// cache cannot faithfully serialize (KeepTrace) or identify
// (TrackOracleDistance, which the key does not cover) run uncached.
func (c *CellCache) Run(spec RunSpec, policyID string) (*Result, error) {
	if spec.KeepTrace || spec.TrackOracleDistance {
		c.skips.Add(1)
		return Run(spec)
	}
	key, err := c.key(spec, policyID)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(c.dir, key+".json")
	if blob, err := os.ReadFile(path); err == nil {
		if res, ok := readCell(blob); ok {
			c.hits.Add(1)
			return res, nil
		}
		// A torn or stale-schema file: fall through and overwrite.
	}
	res, err := Run(spec)
	if err != nil {
		return nil, err
	}
	c.misses.Add(1)
	blob, err := json.Marshal(res)
	if err != nil {
		// Unserializable result (e.g. NaN aggregate): still usable, just
		// not cacheable.
		return res, nil
	}
	// Write-then-rename so concurrent workers and interrupted runs never
	// leave a torn file behind a valid key.
	tmp, err := os.CreateTemp(c.dir, key+".tmp*")
	if err != nil {
		return res, nil
	}
	if _, err := tmp.Write(blob); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return res, nil
	}
	tmp.Close()
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
	}
	return res, nil
}

// readCell decodes a cell file's contents; ok is false when they cannot
// serve as a hit, and the cell is then run afresh. JSON that decodes is not
// enough: `null` and `{}` decode to a zero Result, so the result must also
// be one Run could have returned (validCell).
func readCell(blob []byte) (res *Result, ok bool) {
	res = new(Result)
	if err := json.Unmarshal(blob, res); err != nil || !validCell(res) {
		return nil, false
	}
	return res, true
}

// validCell reports whether res holds what Run guarantees of a result: at
// least one tick, and no negative count, mean or spread (each is a count
// of events or an average of scores clamped to [0, 1], speedups or
// distances). The negated comparisons also refuse a NaN.
func validCell(res *Result) bool {
	if res.Ticks < 1 || res.Applies < 0 || res.RejectedApplies < 0 || res.TransientResets < 0 {
		return false
	}
	for _, v := range []float64{
		res.MeanThroughput, res.MeanFairness, res.MeanObjective, res.MeanWorstSpeedup,
		res.StdThroughput, res.StdFairness, res.MeanOracleDistance, res.MedianOracleDistance,
	} {
		if !(v >= 0) {
			return false
		}
	}
	return true
}
