package sim_test

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"byzcount/internal/sim"
)

// FuzzParseDelayModel: ParseDelayModel never panics, and every model it
// accepts has in-range, non-NaN parameters, a latency bound in
// [1, MaxDelayTicks], and a Name that parses back to the same model.
// The committed corpus (testdata/fuzz) holds the specs that once slipped
// through, such as geo:NaN@4.
func FuzzParseDelayModel(f *testing.F) {
	for _, spec := range []string{"", "unit", "uniform:1-4", "geo:0.5@8", "region:3/1/4", "gst:8/uniform:1-4", "gst:2/geo:0.25@16"} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		m, err := sim.ParseDelayModel(spec)
		if err != nil || m == nil {
			return
		}
		if err := delayInRange(m); err != nil {
			t.Fatalf("ParseDelayModel(%q) = %#v: %v", spec, m, err)
		}
		if d := m.MaxDelay(); d < 1 || d > sim.MaxDelayTicks {
			t.Fatalf("ParseDelayModel(%q).MaxDelay() = %d, want in [1, %d]", spec, d, sim.MaxDelayTicks)
		}
		back, err := sim.ParseDelayModel(m.Name())
		if err != nil || !reflect.DeepEqual(back, m) {
			t.Fatalf("ParseDelayModel(%q).Name() = %q parses to %#v, %v; want %#v", spec, m.Name(), back, err, m)
		}
	})
}

// FuzzParseFaultModel is FuzzParseDelayModel for fault specs, plus the
// partition grammar: a FROM-HEAL window must heal.
func FuzzParseFaultModel(f *testing.F) {
	for _, spec := range []string{"", "none", "drop:0.1", "drop:1", "partition:2@10", "partition:3@5-40"} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		m, err := sim.ParseFaultModel(spec)
		if err != nil || m == nil {
			return
		}
		if err := faultInRange(m); err != nil {
			t.Fatalf("ParseFaultModel(%q) = %#v: %v", spec, m, err)
		}
		// A FROM-HEAL window heals; only a bare FROM never does.
		if p, ok := m.(sim.PartitionFault); ok && strings.Contains(spec, "-") != (p.Heal != 0) {
			t.Fatalf("ParseFaultModel(%q) = %#v: heals iff the spec has a -HEAL window", spec, m)
		}
		back, err := sim.ParseFaultModel(m.Name())
		if err != nil || !reflect.DeepEqual(back, m) {
			t.Fatalf("ParseFaultModel(%q).Name() = %q parses to %#v, %v; want %#v", spec, m.Name(), back, err, m)
		}
	})
}

var errOutOfRange = errors.New("parameter out of range")

// delayInRange checks each parameter against the domain its model
// documents; the comparisons are written so that NaN fails them.
func delayInRange(m sim.DelayModel) error {
	ok := false
	switch m := m.(type) {
	case sim.UnitDelay:
		ok = true
	case sim.UniformDelay:
		ok = m.Min >= 1 && m.Max >= m.Min
	case sim.GeometricDelay:
		ok = m.P > 0 && m.P <= 1 && m.Cap >= 1
	case sim.RegionDelay:
		ok = m.Regions >= 2 && m.Near >= 1 && m.Far >= 1
	case sim.GSTDelay:
		if m.GST < 0 {
			return errOutOfRange
		}
		return delayInRange(m.Inner)
	default:
		return fmt.Errorf("unknown delay model %T", m)
	}
	if !ok {
		return errOutOfRange
	}
	return nil
}

// faultInRange is delayInRange for fault models.
func faultInRange(m sim.FaultModel) error {
	ok := false
	switch m := m.(type) {
	case sim.DropFault:
		ok = m.P >= 0 && m.P <= 1
	case sim.PartitionFault:
		ok = m.Groups >= 2 && m.From >= 0 && (m.Heal == 0 || m.Heal > m.From)
	default:
		return fmt.Errorf("unknown fault model %T", m)
	}
	if !ok {
		return errOutOfRange
	}
	return nil
}
