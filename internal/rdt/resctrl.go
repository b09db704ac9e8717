package rdt

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// ResctrlWriter materializes a compiled Plan in the Linux resctrl
// filesystem layout — the concrete deployment path on a real Intel RDT
// machine. For every job it maintains a control group directory
// containing the standard files:
//
//	<root>/satori-job<N>/schemata   "L3:0=<hex mask>\nMB:0=<percent>\n"
//	<root>/satori-job<N>/cpus_list  "0-2,5"
//
// Pointing Root at /sys/fs/resctrl on a machine with CAT/MBA enabled (and
// the process running with the needed privileges) applies partitions for
// real; pointing it at any scratch directory exercises the identical
// code path hermetically, which is how the tests run. The writer
// materializes whatever valid plan it is given; ResctrlPlatform checks
// the class-of-service budget.
//
// Monitoring (the pqos side) is intentionally out of scope here: reading
// IPS needs perf counters, not resctrl files, and stays behind the
// Platform interface.
type ResctrlWriter struct {
	// Root is the resctrl mount point (or a scratch directory).
	Root string
}

// groupPrefix names the control groups: <root>/satori-job<N>.
const groupPrefix = "satori-job"

func (w ResctrlWriter) groupDir(group int) string {
	return filepath.Join(w.Root, groupPrefix+strconv.Itoa(group))
}

// MaxCLOS detects the platform's class-of-service budget by reading
// info/L3/num_closids under the resctrl root, the standard resctrl
// capability file. The returned count excludes the root group (which
// permanently occupies CLOS0 on real hardware), so it is the number of
// control groups a platform may create. A tree without the info file — a
// scratch directory, or an MB-only mount — reports 0, meaning unlimited.
func (w ResctrlWriter) MaxCLOS() (int, error) {
	blob, err := os.ReadFile(filepath.Join(w.Root, "info", "L3", "num_closids"))
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("rdt: reading num_closids: %w", err)
	}
	n, err := strconv.Atoi(strings.TrimSpace(string(blob)))
	if err != nil || n < 1 {
		return 0, fmt.Errorf("rdt: malformed num_closids %q", strings.TrimSpace(string(blob)))
	}
	return n - 1, nil
}

// Apply writes one control group per plan entry (per job, or per cluster
// when the plan was compiled under a grouping). Existing group
// directories are reused (schemata rewritten in place), matching how
// resctrl groups are managed on a live system; group directories beyond
// the plan — left over after membership churn shrank the job set, or
// after clustering reduced the group count — are removed, since a stale
// group would pin a CLOS (and its cache ways) forever on real hardware.
func (w ResctrlWriter) Apply(plan Plan) error {
	if w.Root == "" {
		return fmt.Errorf("rdt: ResctrlWriter needs a Root directory")
	}
	if err := plan.Validate(); err != nil {
		return err
	}
	for _, ja := range plan.Jobs {
		dir := w.groupDir(ja.Job)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("rdt: creating control group: %w", err)
		}
		schemata := FormatSchemata(ja)
		if err := os.WriteFile(filepath.Join(dir, "schemata"), []byte(schemata), 0o644); err != nil {
			return fmt.Errorf("rdt: writing schemata: %w", err)
		}
		cpus := FormatCPUList(ja.CPUSet)
		if err := os.WriteFile(filepath.Join(dir, "cpus_list"), []byte(cpus+"\n"), 0o644); err != nil {
			return fmt.Errorf("rdt: writing cpus_list: %w", err)
		}
	}
	return w.prune(len(plan.Jobs))
}

// prune removes control-group directories whose index is beyond the live
// plan — the groups a removed job (or a coarser clustering) left behind.
// Only directories named exactly satori-job<N>, N as groupDir spells it,
// are candidates; everything else under the root (info, mon_groups,
// foreign groups, and look-alikes such as satori-job03 or satori-job+3)
// is untouched. On a real resctrl mount a group is deleted with a bare
// rmdir (its virtual files vanish with it), so plain Remove is tried
// first and RemoveAll only as the scratch-directory fallback.
func (w ResctrlWriter) prune(live int) error {
	entries, err := os.ReadDir(w.Root)
	if err != nil {
		return fmt.Errorf("rdt: scanning control groups: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() || !strings.HasPrefix(e.Name(), groupPrefix) {
			continue
		}
		idx, err := strconv.Atoi(e.Name()[len(groupPrefix):])
		if err != nil || idx < live || groupPrefix+strconv.Itoa(idx) != e.Name() {
			continue
		}
		dir := filepath.Join(w.Root, e.Name())
		if err := os.Remove(dir); err != nil {
			if err := os.RemoveAll(dir); err != nil {
				return fmt.Errorf("rdt: removing stale control group %s: %w", e.Name(), err)
			}
		}
	}
	return nil
}

// ReadGroup reads back one job's schemata and cpu list — used to verify a
// running deployment (and by the round-trip tests).
func (w ResctrlWriter) ReadGroup(job int) (JobAllocation, error) {
	dir := w.groupDir(job)
	schemata, err := os.ReadFile(filepath.Join(dir, "schemata"))
	if err != nil {
		return JobAllocation{}, err
	}
	ja, err := ParseSchemata(string(schemata))
	if err != nil {
		return JobAllocation{}, err
	}
	ja.Job = job
	cpus, err := os.ReadFile(filepath.Join(dir, "cpus_list"))
	if err != nil {
		return JobAllocation{}, err
	}
	ja.CPUSet, err = ParseCPUList(strings.TrimSpace(string(cpus)))
	if err != nil {
		return JobAllocation{}, err
	}
	return ja, nil
}

// FormatSchemata renders the resctrl schemata lines for one job, on
// cache domain 0.
func FormatSchemata(ja JobAllocation) string {
	return fmt.Sprintf("L3:0=%x\nMB:0=%d\n", ja.CATMask, ja.MBAPercent)
}

// ParseSchemata parses L3/MB schemata lines (single cache domain).
func ParseSchemata(s string) (JobAllocation, error) {
	var ja JobAllocation
	sawL3, sawMB := false, false
	for _, line := range strings.Split(strings.TrimSpace(s), "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		kind, rest, ok := strings.Cut(line, ":")
		if !ok {
			return ja, fmt.Errorf("rdt: malformed schemata line %q", line)
		}
		_, value, ok := strings.Cut(rest, "=")
		if !ok {
			return ja, fmt.Errorf("rdt: malformed schemata assignment %q", line)
		}
		switch strings.TrimSpace(kind) {
		case "L3":
			mask, err := strconv.ParseUint(strings.TrimSpace(value), 16, 64)
			if err != nil {
				return ja, fmt.Errorf("rdt: bad L3 mask in %q: %w", line, err)
			}
			ja.CATMask = mask
			sawL3 = true
		case "MB":
			pct, err := strconv.Atoi(strings.TrimSpace(value))
			if err != nil {
				return ja, fmt.Errorf("rdt: bad MB percent in %q: %w", line, err)
			}
			ja.MBAPercent = pct
			sawMB = true
		default:
			return ja, fmt.Errorf("rdt: unsupported schemata resource %q", kind)
		}
	}
	if !sawL3 || !sawMB {
		return ja, fmt.Errorf("rdt: schemata missing L3 or MB line")
	}
	return ja, nil
}

// FormatCPUList renders a CPU set in the kernel's list format with
// collapsed ranges ("0-2,5,7-8").
func FormatCPUList(cpus []int) string {
	if len(cpus) == 0 {
		return ""
	}
	sorted := append([]int(nil), cpus...)
	sort.Ints(sorted)
	var parts []string
	start, prev := sorted[0], sorted[0]
	flush := func() {
		if start == prev {
			parts = append(parts, strconv.Itoa(start))
		} else {
			parts = append(parts, fmt.Sprintf("%d-%d", start, prev))
		}
	}
	for _, c := range sorted[1:] {
		if c == prev {
			continue // duplicates collapse
		}
		if c == prev+1 {
			prev = c
			continue
		}
		flush()
		start, prev = c, c
	}
	flush()
	return strings.Join(parts, ",")
}

// maxCPUs bounds what ParseCPUList will expand: ids run 0..maxCPUs-1 and a
// list names at most maxCPUs of them — the kernel's own NR_CPUS ceiling.
// The text is outside input (a cpus_list file), and "0-2000000000" must
// be an error, not sixteen gigabytes.
const maxCPUs = 8192

// ParseCPUList parses the kernel CPU list format. Duplicates are
// tolerated (FormatCPUList collapses them).
func ParseCPUList(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		first, last, isRange := strings.Cut(part, "-")
		if !isRange {
			last = first
		}
		lo, errLo := strconv.Atoi(first)
		hi, errHi := strconv.Atoi(last)
		if errLo != nil || errHi != nil || hi < lo {
			return nil, fmt.Errorf("rdt: bad cpu id or range %q", part)
		}
		if hi >= maxCPUs || len(out)+hi-lo >= maxCPUs {
			return nil, fmt.Errorf("rdt: cpu list %q is beyond %d cpus (ids 0-%d)", part, maxCPUs, maxCPUs-1)
		}
		for c := lo; c <= hi; c++ {
			out = append(out, c)
		}
	}
	return out, nil
}
