package engine

import (
	"math"
	"strings"
	"testing"
	"time"

	"geosel/internal/sim"
)

func validConfig() Config {
	return Config{K: 10, ThetaFrac: 0.003, Metric: sim.Cosine{}}
}

func TestValidateAcceptsDefaults(t *testing.T) {
	if err := validConfig().Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	// The serving fields' zero values are valid too.
	cfg := validConfig()
	cfg.RequestTimeout = 0
	cfg.SessionTTL = 0
	cfg.MaxSessions = 0
	if err := cfg.Validate(); err != nil {
		t.Fatalf("zero-valued knobs rejected: %v", err)
	}
	// Negative SessionTTL is the documented "disable eviction" setting.
	cfg.SessionTTL = -1
	if err := cfg.Validate(); err != nil {
		t.Fatalf("negative SessionTTL rejected: %v", err)
	}
	// An infinite θ is a threshold every pair of objects falls within.
	cfg.Theta, cfg.ThetaFrac = math.Inf(1), math.Inf(1)
	if err := cfg.Validate(); err != nil {
		t.Fatalf("infinite Theta and ThetaFrac rejected: %v", err)
	}
}

func TestValidateRejectsOutOfRange(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
		want   string
	}{
		{"negative K", func(c *Config) { c.K = -1 }, "K"},
		{"negative Theta", func(c *Config) { c.Theta = -0.1 }, "Theta"},
		{"negative ThetaFrac", func(c *Config) { c.ThetaFrac = -0.1 }, "ThetaFrac"},
		{"NaN Theta", func(c *Config) { c.Theta = math.NaN() }, "Theta"},
		{"NaN ThetaFrac", func(c *Config) { c.ThetaFrac = math.NaN() }, "ThetaFrac"},
		{"-Inf Theta", func(c *Config) { c.Theta = math.Inf(-1) }, "Theta"},
		{"nil Metric", func(c *Config) { c.Metric = nil }, "Metric"},
		{"MaxZoomOutScale below 1", func(c *Config) { c.MaxZoomOutScale = 0.5 }, "MaxZoomOutScale"},
		{"negative RequestTimeout", func(c *Config) { c.RequestTimeout = -time.Second }, "RequestTimeout"},
		{"negative MaxSessions", func(c *Config) { c.MaxSessions = -1 }, "MaxSessions"},
		{"negative TileCacheCapacity", func(c *Config) { c.TileCacheCapacity = -1 }, "TileCacheCapacity"},
	}
	for _, tc := range cases {
		cfg := validConfig()
		tc.mutate(&cfg)
		err := cfg.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not name the field %q", tc.name, err, tc.want)
		}
	}
}

func TestWithDefaults(t *testing.T) {
	got := validConfig().WithDefaults()
	if got.MaxZoomOutScale != DefaultMaxZoomOutScale {
		t.Errorf("MaxZoomOutScale = %v, want %v", got.MaxZoomOutScale, DefaultMaxZoomOutScale)
	}
	if got.SessionTTL != DefaultSessionTTL {
		t.Errorf("SessionTTL = %v, want %v", got.SessionTTL, DefaultSessionTTL)
	}
	if got.MaxSessions != DefaultMaxSessions {
		t.Errorf("MaxSessions = %d, want %d", got.MaxSessions, DefaultMaxSessions)
	}
	if got.TileCacheCapacity != DefaultTileCacheCapacity {
		t.Errorf("TileCacheCapacity = %d, want %d", got.TileCacheCapacity, DefaultTileCacheCapacity)
	}
	// Selection fields keep their meaningful zero values.
	if got.K != 10 || got.Theta != 0 {
		t.Errorf("selection fields altered: %+v", got)
	}
	// TileCache stays an explicit opt-in: WithDefaults never flips it.
	if got.TileCache {
		t.Error("WithDefaults enabled TileCache")
	}
	// Explicit settings survive.
	cfg := validConfig()
	cfg.MaxZoomOutScale = 3
	cfg.SessionTTL = -1
	cfg.MaxSessions = 7
	got = cfg.WithDefaults()
	if got.MaxZoomOutScale != 3 || got.SessionTTL != -1 || got.MaxSessions != 7 {
		t.Errorf("explicit settings overridden: %+v", got)
	}
}
