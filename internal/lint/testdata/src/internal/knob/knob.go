// Package knob is the singleknob fixture: a *Config struct whose fields
// are set by another package, by a test, by nobody but their own
// package's constructor, or by nobody at all.
package knob

// Params is a sub-config reached through an assignment path.
type Params struct {
	Cards int
}

// Config has one field of each kind.
type Config struct {
	// Budget is set by a composite literal in another package.
	Budget float64
	// Params is written through: cfg.Params.Cards = 1 sets Params.
	Params Params
	// Seed is set only by this package's own test.
	Seed uint64
	// Period is set by Default and re-defaulted by fill, nowhere else.
	Period int // want "no caller sets knob.Config.Period: make it a constant or name who does"
	// Cap has no writer at all.
	Cap int // want "no caller sets knob.Config.Cap"
	// Hosts is set from Default's argument: the annotation names it.
	//lint:ignore singleknob set from Default(hosts)'s argument
	Hosts int
	// Positional is set by an unkeyed literal of Pair in another package.
	Positional PairConfig
	// step is unexported: not a knob.
	step int
}

// PairConfig is written positionally by the user package.
type PairConfig struct {
	A, B int
}

// Settings is not named *Config: its fields are not knobs.
type Settings struct {
	Unused int
}

// Default is the only construction, like the live tree's Default*.
func Default(hosts int) Config {
	return Config{Budget: 0.05, Period: 10, Hosts: hosts, step: 1}
}

// fill is the zero-fill block that re-applies the same default.
func fill(c *Config) {
	if c.Period <= 0 {
		c.Period = 10
	}
	c.step++
}
