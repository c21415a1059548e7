// Package user is the other half of the singleknob fixture: the callers
// that make knob.Config's fields real knobs.
package user

import "openvcu/internal/knob"

// Build sets fields every way the rule recognises.
func Build() []*knob.Config {
	cfg := knob.Default(2)
	cfg.Params.Cards = 1
	cfgs := []*knob.Config{{Budget: 0.1}}
	cfgs[0].Positional = knob.PairConfig{1, 2}
	return append(cfgs, &cfg)
}
