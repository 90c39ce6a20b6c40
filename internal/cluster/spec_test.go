package cluster

import (
	"context"
	"reflect"
	"testing"

	"mwsjoin/internal/spatial"
)

// notCarried names the spatial.Config fields SpecFromConfig leaves
// behind, each with the reason it may: the worker sets the field itself,
// or it deliberately stays in the calling process.
var notCarried = map[string]string{
	"FS":          "worker-set: its retained per-session file system",
	"Dist":        "worker-set: built from the start message's roster",
	"Resume":      "worker-set: from SessionSpec.Resume, which the coordinator sets on a retry attempt",
	"Part":        "the cluster derives the grid from Scheme/Reducers/SplitThreshold and the shipped relations",
	"Tracer":      "a span tree belongs to one process; cluster jobs have no profile",
	"Context":     "cancellation is the coordinator's session timeout",
	"OnChainStep": "a progress callback cannot cross the wire",
	"MaxAttempts": "fault hooks are functions of the calling process",
	"FailMap":     "fault hooks are functions of the calling process",
	"FailReduce":  "fault hooks are functions of the calling process",
	"FailJob":     "fault hooks are functions of the calling process",
	"CountOnly":   "Execute rejects it on a multi-worker run",
	"Columnar":    "read by nothing",
	"SpillBudget": "read by nothing",
}

// setNonZero gives a Config field some value other than its zero.
func setNonZero(t *testing.T, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(1)
	case reflect.Uint8:
		v.SetUint(1)
	case reflect.Float64:
		v.SetFloat(1.5)
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
	case reflect.Interface:
		v.Set(reflect.ValueOf(context.Background()))
	case reflect.Func:
		ft := v.Type()
		v.Set(reflect.MakeFunc(ft, func([]reflect.Value) []reflect.Value {
			out := make([]reflect.Value, ft.NumOut())
			for i := range out {
				out[i] = reflect.Zero(ft.Out(i))
			}
			return out
		}))
	default:
		t.Fatalf("no non-zero value for a %s field", v.Kind())
	}
}

// TestSpecCarriesConfig: every spatial.Config field either changes the
// spec SpecFromConfig builds or is on the notCarried list with its
// reason — so a field added to Config fails here until someone decides
// which, instead of being dropped silently on the cluster path.
func TestSpecCarriesConfig(t *testing.T) {
	base := SpecFromConfig(spatial.Cascade, "q", nil, spatial.Config{})
	ct := reflect.TypeOf(spatial.Config{})
	fields := make(map[string]bool)
	for i := 0; i < ct.NumField(); i++ {
		name := ct.Field(i).Name
		fields[name] = true
		var cfg spatial.Config
		setNonZero(t, reflect.ValueOf(&cfg).Elem().Field(i))
		carried := !reflect.DeepEqual(SpecFromConfig(spatial.Cascade, "q", nil, cfg), base)
		if _, listed := notCarried[name]; carried == listed {
			t.Errorf("Config.%s: carried by the spec = %v, on the notCarried list = %v; exactly one must hold", name, carried, listed)
		}
	}
	for name := range notCarried {
		if !fields[name] {
			t.Errorf("%s is listed but is no field of spatial.Config", name)
		}
	}
}
