// Package report defines the versioned, machine-readable benchmark
// artifact every cmd/* tool can emit, and the comparison engine behind
// cmd/benchdiff. The text tables (report.txt) are for humans; artifacts
// are for machines — diffable records of run metadata, the cost-model
// fingerprint, per-experiment metric series and attack-matrix verdicts,
// so a PR that shifts a crossover point or regresses a hot path fails a
// gate instead of silently rewriting prose.
package report

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"repro/internal/cycles"
)

// SchemaVersion is bumped whenever the artifact layout changes
// incompatibly. benchdiff refuses to compare mismatched schemas.
const SchemaVersion = 1

// Artifact is one benchmark run's complete machine-readable record.
type Artifact struct {
	// Schema is the artifact format version (SchemaVersion).
	Schema int `json:"schema"`
	// Tool is the producing command ("reproduce", "attackbench", ...).
	Tool string `json:"tool"`
	// CreatedAt is an RFC3339 wall-clock stamp. Informational only:
	// benchdiff never compares it.
	CreatedAt string `json:"created_at,omitempty"`
	// WindowMs is the simulated window per data point.
	WindowMs float64 `json:"window_ms,omitempty"`
	// CostModel identifies the cycle-cost calibration of the run.
	CostModel CostModel `json:"cost_model"`
	// Experiments holds one entry per table/figure produced.
	Experiments []Experiment `json:"experiments"`
	// Attacks holds the Table 1 security verdicts, when the run
	// included the attack matrix.
	Attacks []AttackVerdict `json:"attacks,omitempty"`
}

// CostModel fingerprints the cycle-cost calibration so artifacts from
// different calibrations are never silently compared.
type CostModel struct {
	Hz          uint64 `json:"hz"`
	Fingerprint string `json:"fingerprint"`
}

// Experiment is one figure/table: the human-readable rendering (columns
// and rows) plus the structured numeric series benchdiff consumes.
type Experiment struct {
	// Name is the stable machine-readable id ("fig3", "storage", ...).
	Name    string     `json:"name"`
	Title   string     `json:"title,omitempty"`
	Note    string     `json:"note,omitempty"`
	Columns []string   `json:"columns,omitempty"`
	Rows    [][]string `json:"rows,omitempty"`
	// Winner, when set, declares which metric decides "who wins" at
	// each point — the per-figure claim benchdiff guards against flips.
	Winner *Winner  `json:"winner,omitempty"`
	Series []Series `json:"series,omitempty"`
	// WallMs is the host wall-clock time spent producing this experiment,
	// in milliseconds. Informational only (profiling aid): benchdiff
	// never compares it — virtual-time metrics live in Series.
	WallMs float64 `json:"wall_ms,omitempty"`
}

// Winner declares the claim-deciding metric of an experiment.
type Winner struct {
	Metric string `json:"metric"`
	// LowerIsBetter is true for latencies and per-op costs.
	LowerIsBetter bool `json:"lower_is_better,omitempty"`
}

// Series is one system's measurements across an experiment's points.
type Series struct {
	System string  `json:"system"`
	Points []Point `json:"points"`
}

// Point is one x-axis position (a message size, an I/O size, a pattern)
// with its named metrics.
type Point struct {
	Label   string             `json:"label"`
	Metrics map[string]float64 `json:"metrics"`
}

// AttackVerdict is one row of the paper's Table 1, decided by running
// real attacks (see campaign.Table1).
type AttackVerdict struct {
	System          string  `json:"system"`
	SubPageProtect  bool    `json:"sub_page_protect"`
	NoVulnWindow    bool    `json:"no_vuln_window"`
	SingleCorePerf  bool    `json:"single_core_perf"`
	MultiCorePerf   bool    `json:"multi_core_perf"`
	SingleCoreRatio float64 `json:"single_core_ratio"`
	MultiCoreRatio  float64 `json:"multi_core_ratio"`
}

// New starts an artifact for a tool run. A nil costs means the default
// calibration.
func New(tool string, windowMs float64, costs *cycles.Costs) *Artifact {
	if costs == nil {
		costs = cycles.Default()
	}
	return &Artifact{
		Schema:   SchemaVersion,
		Tool:     tool,
		WindowMs: windowMs,
		CostModel: CostModel{
			Hz:          cycles.Hz,
			Fingerprint: Fingerprint(costs),
		},
	}
}

// Add appends an experiment.
func (a *Artifact) Add(e Experiment) { a.Experiments = append(a.Experiments, e) }

// Fingerprint returns a stable hash of a cost model (plus the simulated
// frequency), so two artifacts are comparable only when every calibration
// constant matched.
func Fingerprint(c *cycles.Costs) string {
	if c == nil {
		c = cycles.Default()
	}
	// encoding/json marshals struct fields in declaration order, so the
	// byte stream (and thus the hash) is stable for a given schema.
	b, err := json.Marshal(c)
	if err != nil {
		return "unhashable"
	}
	h := sha256.New()
	fmt.Fprintf(h, "hz=%d;", uint64(cycles.Hz))
	h.Write(b)
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}

// Validate checks the artifact is structurally sound: right schema
// version, named experiments, labeled points, finite metrics.
func (a *Artifact) Validate() error {
	if a.Schema != SchemaVersion {
		return fmt.Errorf("report: schema %d, this build understands %d", a.Schema, SchemaVersion)
	}
	if a.Tool == "" {
		return fmt.Errorf("report: missing tool")
	}
	if a.CostModel.Fingerprint == "" {
		return fmt.Errorf("report: missing cost-model fingerprint")
	}
	seen := make(map[string]bool)
	for i, e := range a.Experiments {
		if e.Name == "" {
			return fmt.Errorf("report: experiment %d has no name", i)
		}
		if seen[e.Name] {
			return fmt.Errorf("report: duplicate experiment %q", e.Name)
		}
		seen[e.Name] = true
		if e.Winner != nil && e.Winner.Metric == "" {
			return fmt.Errorf("report: experiment %q: winner without metric", e.Name)
		}
		for _, s := range e.Series {
			if s.System == "" {
				return fmt.Errorf("report: experiment %q: series without system", e.Name)
			}
			for _, p := range s.Points {
				if p.Label == "" {
					return fmt.Errorf("report: experiment %q/%s: point without label", e.Name, s.System)
				}
				for k, v := range p.Metrics {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						return fmt.Errorf("report: experiment %q/%s/%s: metric %q is %v",
							e.Name, s.System, p.Label, k, v)
					}
				}
			}
		}
	}
	for _, v := range a.Attacks {
		if v.System == "" {
			return fmt.Errorf("report: attack verdict without system")
		}
	}
	return nil
}

// Encode writes the artifact as indented JSON (after validating it).
func (a *Artifact) Encode(w io.Writer) error {
	if err := a.Validate(); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(a)
}

// WriteFile validates and writes the artifact to path.
func (a *Artifact) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := a.Encode(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Decode reads and validates an artifact.
func Decode(r io.Reader) (*Artifact, error) {
	var a Artifact
	dec := json.NewDecoder(r)
	if err := dec.Decode(&a); err != nil {
		return nil, fmt.Errorf("report: bad artifact: %w", err)
	}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	return &a, nil
}

// Load reads and validates an artifact file.
func Load(path string) (*Artifact, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	a, err := Decode(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return a, nil
}

// Experiment returns the named experiment, or nil.
func (a *Artifact) Experiment(name string) *Experiment {
	for i := range a.Experiments {
		if a.Experiments[i].Name == name {
			return &a.Experiments[i]
		}
	}
	return nil
}

// point returns the labeled point of a series, or nil.
func (s *Series) point(label string) *Point {
	for i := range s.Points {
		if s.Points[i].Label == label {
			return &s.Points[i]
		}
	}
	return nil
}

// labels returns every point label of an experiment, in first-seen order.
func (e *Experiment) labels() []string {
	var out []string
	seen := make(map[string]bool)
	for _, s := range e.Series {
		for _, p := range s.Points {
			if !seen[p.Label] {
				seen[p.Label] = true
				out = append(out, p.Label)
			}
		}
	}
	return out
}

// sortedKeys returns a map's keys in sorted order (stable reports).
func sortedKeys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
