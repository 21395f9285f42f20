package raa

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"sort"
	"strings"

	"repro/internal/stats"
)

// Spec is an experiment configuration. Every Spec must be a JSON-
// serialisable struct (or pointer to one): the registry round-trips specs
// through JSON to apply user overrides on top of the experiment's defaults,
// and commands expose them verbatim with -json.
type Spec any

// Result is the uniform outcome shape every experiment returns.
type Result struct {
	// Experiment is the canonical registry name of the producer.
	Experiment string `json:"experiment"`
	// Spec echoes the configuration the run actually used.
	Spec Spec `json:"spec"`
	// Metrics is the flat machine-readable summary: every experiment
	// reports its headline numbers here under stable snake_case keys.
	Metrics map[string]float64 `json:"metrics"`
	// Tables carries the paper-style rendered tables, in report order.
	Tables []*stats.Table `json:"tables,omitempty"`
	// Notes holds free-text context such as the paper's reference numbers.
	Notes []string `json:"notes,omitempty"`
}

// Experiment is one runnable reproduction target. Run must honour ctx:
// cancellation makes it return ctx.Err() (in-flight simulation work stops
// at the next unit boundary).
type Experiment interface {
	// Name is the canonical registry identifier (kebab-case).
	Name() string
	// DefaultSpec returns the full-scale configuration the paper uses.
	DefaultSpec() Spec
	// Run executes the experiment under spec. The spec must be of the
	// dynamic type DefaultSpec returns (the registry guarantees this for
	// specs it decodes).
	Run(ctx context.Context, spec Spec) (*Result, error)
}

// Describer is an optional Experiment extension: a one-line description of
// what the experiment reproduces, shown by raa-bench -list.
type Describer interface {
	Describe() string
}

// Quicker is an optional Experiment extension: a reduced-scale spec for
// smoke runs and tests (raa-bench -quick).
type Quicker interface {
	QuickSpec() Spec
}

// Aliaser is an optional Experiment extension: extra names the registry
// resolves to this experiment (e.g. the paper's figure numbers).
type Aliaser interface {
	Aliases() []string
}

// Volatile is an optional Experiment extension for experiments whose
// Result carries wall-clock measurements (throughput, latency): two runs
// with the same spec produce the same metric keys and table shapes but
// not bit-identical values. Determinism checks compare structure, not
// values, for volatile experiments; everything else is expected to be
// exactly reproducible per spec and seed.
type Volatile interface {
	Volatile() bool
}

// IsVolatile reports whether the experiment declares wall-clock results.
func IsVolatile(e Experiment) bool {
	v, ok := e.(Volatile)
	return ok && v.Volatile()
}

// SpecFor resolves the spec an experiment should run: the default (or quick
// default) overlaid with the user's JSON overrides, returned as the same
// dynamic type DefaultSpec produces. A nil or empty overrides slice applies
// no overrides.
func SpecFor(e Experiment, quick bool, overrides []byte) (Spec, error) {
	base := e.DefaultSpec()
	if quick {
		if q, ok := e.(Quicker); ok {
			base = q.QuickSpec()
		}
	}
	if len(overrides) == 0 {
		return base, nil
	}
	return mergeSpec(base, overrides)
}

// mergeSpec decodes JSON overrides on top of a base spec value without
// knowing its concrete type: it clones base into a fresh pointer and lets
// encoding/json overwrite only the fields present in the override document.
func mergeSpec(base Spec, overrides []byte) (Spec, error) {
	if base == nil {
		return nil, fmt.Errorf("raa: experiment has no default spec to merge into")
	}
	bv := reflect.ValueOf(base)
	if bv.Kind() == reflect.Pointer {
		if bv.IsNil() {
			return nil, fmt.Errorf("raa: nil pointer default spec")
		}
		bv = bv.Elem()
	}
	p := reflect.New(bv.Type())
	p.Elem().Set(bv)
	// A key the spec does not have is an error, not a no-op: a typo or a
	// retired knob must not run as if nothing had been passed.
	dec := json.NewDecoder(bytes.NewReader(overrides))
	dec.DisallowUnknownFields()
	if err := dec.Decode(p.Interface()); err != nil {
		return nil, fmt.Errorf("raa: bad spec overrides: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("raa: bad spec overrides: trailing data after the JSON document")
	}
	if reflect.ValueOf(base).Kind() == reflect.Pointer {
		return p.Interface(), nil
	}
	return p.Elem().Interface(), nil
}

// MetricKey normalises a free-form name (kernel, scheme, algorithm …) into
// the stable snake_case component every experiment uses for Result.Metrics
// keys: lower-cased, with separators mapped to underscores.
func MetricKey(name string) string {
	var b strings.Builder
	b.Grow(len(name))
	for _, r := range strings.ToLower(name) {
		switch r {
		case '-', ' ', '.', '/':
			b.WriteRune('_')
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// Describe returns the experiment's one-line description, or "".
func Describe(e Experiment) string {
	if d, ok := e.(Describer); ok {
		return d.Describe()
	}
	return ""
}

// WriteText renders the result as the human-readable report: tables in
// order, then notes, then the metrics sorted by key.
func (r *Result) WriteText(w io.Writer) error {
	for _, t := range r.Tables {
		if _, err := fmt.Fprintln(w, t); err != nil {
			return err
		}
	}
	for _, n := range r.Notes {
		if _, err := fmt.Fprintln(w, n); err != nil {
			return err
		}
	}
	if len(r.Metrics) > 0 {
		keys := make([]string, 0, len(r.Metrics))
		for k := range r.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if _, err := fmt.Fprintln(w, "metrics:"); err != nil {
			return err
		}
		for _, k := range keys {
			if _, err := fmt.Fprintf(w, "  %-32s %g\n", k, r.Metrics[k]); err != nil {
				return err
			}
		}
	}
	return nil
}
