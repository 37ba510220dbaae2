// Package dataset generates and loads the geospatial datasets the
// experiments run on. The paper evaluates on crawls we cannot ship
// (geo-tagged tweets for the UK and US via the Twitter API, Foursquare
// POIs for Singapore); this package substitutes synthetic datasets that
// reproduce the properties those crawls contribute to the evaluation:
//
//   - spatial skew: objects concentrate in population-center-like
//     Gaussian clusters whose sizes follow a heavy-tailed distribution,
//     over a sparse uniform background;
//   - correlated text: objects in the same spatial cluster share a
//     topic vocabulary (people tweet about nearby things), drawn with a
//     Zipf distribution, plus a long tail of rare terms — giving the
//     skewed similarity structure that drives the lazy-forward and
//     pre-fetching gains;
//   - weights: uniform in [0, 1], exactly as the paper assigns them.
//
// Presets mirror the paper's three datasets at laptop scale; every
// generator takes an explicit size so the scalability sweeps can grow
// them.
package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"strconv"

	"geosel/internal/geo"
	"geosel/internal/geodata"
)

// Spec parameterizes the synthetic generator.
type Spec struct {
	// N is the number of objects.
	N int
	// Clusters is the number of spatial clusters. Cluster sizes follow
	// a Zipf-like power law so that a few metropolises dominate.
	Clusters int
	// ClusterSigma scales the Gaussian spread of a cluster relative to
	// the unit world (typical city footprint: 0.005–0.05).
	ClusterSigma float64
	// BackgroundFrac is the fraction of objects scattered uniformly
	// outside any cluster (rural noise).
	BackgroundFrac float64
	// TopicsPerCluster is the number of topic words characteristic of
	// each cluster.
	TopicsPerCluster int
	// WordsPerObject is the number of terms drawn per object text.
	WordsPerObject int
	// TopicWordFrac is the probability that a term is drawn from the
	// object's cluster topic vocabulary rather than the global tail.
	TopicWordFrac float64
	// TailVocab is the size of the global rare-term vocabulary.
	TailVocab int
	// Seed drives all randomness; equal specs with equal seeds generate
	// identical datasets.
	Seed int64
}

// Validate reports the first invalid field.
func (s Spec) Validate() error {
	switch {
	case s.N < 0:
		return fmt.Errorf("dataset: N = %d must be non-negative", s.N)
	case s.Clusters <= 0:
		return fmt.Errorf("dataset: Clusters = %d must be positive", s.Clusters)
	case s.ClusterSigma <= 0:
		return fmt.Errorf("dataset: ClusterSigma = %v must be positive", s.ClusterSigma)
	case s.BackgroundFrac < 0 || s.BackgroundFrac > 1:
		return fmt.Errorf("dataset: BackgroundFrac = %v outside [0,1]", s.BackgroundFrac)
	case s.TopicsPerCluster <= 0:
		return fmt.Errorf("dataset: TopicsPerCluster = %d must be positive", s.TopicsPerCluster)
	case s.WordsPerObject <= 0:
		return fmt.Errorf("dataset: WordsPerObject = %d must be positive", s.WordsPerObject)
	case s.TopicWordFrac < 0 || s.TopicWordFrac > 1:
		return fmt.Errorf("dataset: TopicWordFrac = %v outside [0,1]", s.TopicWordFrac)
	case s.TailVocab <= 0:
		return fmt.Errorf("dataset: TailVocab = %d must be positive", s.TailVocab)
	}
	return nil
}

// UKSpec mimics the paper's UK geo-tagged tweet crawl at the given
// size (the paper uses 1M–2M; the experiment defaults here are scaled
// down and every harness exposes a size knob).
func UKSpec(n int, seed int64) Spec {
	return Spec{
		N: n, Clusters: 40, ClusterSigma: 0.02, BackgroundFrac: 0.15,
		TopicsPerCluster: 12, WordsPerObject: 6, TopicWordFrac: 0.6,
		TailVocab: 30000, Seed: seed,
	}
}

// USSpec mimics the US crawl: more clusters, wider spread (the paper
// uses 100M–200M tweets).
func USSpec(n int, seed int64) Spec {
	return Spec{
		N: n, Clusters: 120, ClusterSigma: 0.012, BackgroundFrac: 0.1,
		TopicsPerCluster: 12, WordsPerObject: 6, TopicWordFrac: 0.6,
		TailVocab: 80000, Seed: seed,
	}
}

// POISpec mimics the Foursquare Singapore POI dataset: one dense
// metropolitan area, shorter texts (venue names and categories).
func POISpec(n int, seed int64) Spec {
	return Spec{
		N: n, Clusters: 12, ClusterSigma: 0.04, BackgroundFrac: 0.05,
		TopicsPerCluster: 8, WordsPerObject: 4, TopicWordFrac: 0.7,
		TailVocab: 8000, Seed: seed,
	}
}

// presets maps each preset name to its Spec constructor.
var presets = map[string]func(n int, seed int64) Spec{"uk": UKSpec, "us": USSpec, "poi": POISpec}

// PresetSpec returns the Spec of the named preset ("uk", "us" or "poi")
// at the given size and seed.
func PresetSpec(name string, n int, seed int64) (Spec, error) {
	if spec, ok := presets[name]; ok {
		return spec(n, seed), nil
	}
	return Spec{}, fmt.Errorf("dataset: unknown preset %q (want uk, us or poi)", name)
}

// Load reads the dataset file at path, in any format ReadAuto
// recognizes, or, with an empty path, generates the named preset.
func Load(path, preset string, n int, seed int64) (*geodata.Collection, error) {
	if path == "" {
		spec, err := PresetSpec(preset, n, seed)
		if err != nil {
			return nil, err
		}
		return Generate(spec)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	// Read-only file: the data's integrity is established by ReadAuto,
	// not by Close.
	defer f.Close() //geolint:errok
	return ReadAuto(f)
}

// Generate builds the collection described by spec.
func Generate(spec Spec) (*geodata.Collection, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	b := newBuilder(spec.N)

	// Cluster centers and power-law masses.
	type cluster struct {
		center geo.Point
		sigma  float64
		mass   float64
		topics []string
	}
	clusters := make([]cluster, spec.Clusters)
	var totalMass float64
	topicID := 0
	for i := range clusters {
		mass := 1 / math.Pow(float64(i+1), 1.0) // Zipf cluster sizes
		topics := make([]string, spec.TopicsPerCluster)
		for j := range topics {
			topics[j] = fmt.Sprintf("t%d", topicID)
			topicID++
		}
		clusters[i] = cluster{
			center: geo.Pt(rng.Float64(), rng.Float64()),
			sigma:  spec.ClusterSigma * (0.5 + rng.Float64()),
			mass:   mass,
			topics: topics,
		}
		totalMass += mass
	}
	// Topic word popularity within a cluster is itself skewed.
	topicZipf := rand.NewZipf(rng, 1.3, 1, uint64(spec.TopicsPerCluster-1))

	pickCluster := func() int {
		target := rng.Float64() * totalMass
		acc := 0.0
		for i := range clusters {
			acc += clusters[i].mass
			if acc >= target {
				return i
			}
		}
		return len(clusters) - 1
	}

	var text []byte
	for i := 0; i < spec.N; i++ {
		var loc geo.Point
		var cl *cluster
		if rng.Float64() < spec.BackgroundFrac {
			loc = geo.Pt(rng.Float64(), rng.Float64())
			// Background objects borrow the nearest-ish cluster's topics
			// with low probability; mostly tail words.
			cl = &clusters[rng.Intn(len(clusters))]
		} else {
			cl = &clusters[pickCluster()]
			loc = geo.Pt(
				clamp01(cl.center.X+rng.NormFloat64()*cl.sigma),
				clamp01(cl.center.Y+rng.NormFloat64()*cl.sigma),
			)
		}
		text = text[:0]
		for w := 0; w < spec.WordsPerObject; w++ {
			if w > 0 {
				text = append(text, ' ')
			}
			if rng.Float64() < spec.TopicWordFrac {
				text = append(text, cl.topics[int(topicZipf.Uint64())]...)
			} else {
				text = strconv.AppendInt(append(text, 'r'), int64(rng.Intn(spec.TailVocab)), 10)
			}
		}
		copy(b.add(i, loc, rng.Float64(), len(text)), text)
	}
	return b.collection(), nil
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// GenerateStore is Generate followed by geodata.NewStore, which builds
// the grid over every object.
func GenerateStore(spec Spec) (*geodata.Store, error) {
	col, err := Generate(spec)
	if err != nil {
		return nil, err
	}
	return geodata.NewStore(col)
}
