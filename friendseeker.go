// Package friendseeker is an open-source implementation of FriendSeeker
// (Chang, Tao, Zhu, Li — ICDCS 2023): a two-phase friendship-inference
// attack that reveals both real-world and cyber (hidden) friendships in
// mobile social networks from sparse check-in data.
//
// # Architecture
//
// Phase 1 (real-world friends): each candidate user pair's trajectories
// are cast into an adaptive spatial-temporal division, producing a joint
// occurrence cuboid (JOC). A supervised autoencoder — trained jointly with
// a classification head (the paper's Algorithm 1) — compresses JOCs into
// d-dimensional presence-proximity features; a KNN classifier over those
// features yields an initial social graph.
//
// Phase 2 (hidden friends): for every pair, the k-hop reachable subgraph
// of the evolving social graph is encoded into a social-proximity feature
// (sums of edge presence-features over same-length paths, concatenated
// across lengths 2..k), concatenated with the pair's own presence feature,
// and classified by an RBF-kernel SVM. The graph is re-derived and the
// process iterates until fewer than 1% of edges change.
//
// # Concurrency
//
// Train and Save are exclusive: neither may overlap with any other call
// on the same FriendSeeker. Once a model is trained (or restored with
// LoadModel), it is strictly read-only at inference time: Infer,
// InferContext and InferAfterIterations are safe to call from any number
// of goroutines on the same model, including against target datasets
// whose POI universe differs from the training data — unseen POIs are
// resolved through a per-call overlay, never written into the model. One
// trained model can therefore serve concurrent inference traffic, and
// Save writes the same bytes no matter how many inferences ran before it.
//
// # Serving
//
// For long-lived serving, (*FriendSeeker).NewPairScorer freezes one
// reference inference over a dataset and answers per-pair decisions —
// batch-order independent and byte-identical to the reference Infer —
// from any number of goroutines. `friendseeker serve` runs one reference
// inference per dataset over every user pair when a model is published,
// answers each request by looking its pairs up in the resulting decision
// table, and adds admission control and zero-downtime model swap; see
// DESIGN.md "Serving architecture" and cmd/loadgen for the companion load
// driver.
//
// # Quick start
//
//	world, _ := friendseeker.GenerateWorld(friendseeker.TinyWorld(1))
//	split, _ := world.FullView().SplitPairs(0.7, 3, 2)
//	attack, _ := friendseeker.New(friendseeker.Config{})
//	_ = attack.Train(world.Dataset, split.TrainPairs, split.TrainLabels)
//	decisions, report, _ := attack.Infer(world.Dataset, split.InferencePairs())
//
// See examples/ for runnable programs and DESIGN.md for the system
// inventory and experiment index.
package friendseeker

import (
	"io"
	"time"

	"github.com/friendseeker/friendseeker/internal/checkin"
	"github.com/friendseeker/friendseeker/internal/core"
	"github.com/friendseeker/friendseeker/internal/dataset"
	"github.com/friendseeker/friendseeker/internal/graph"
	"github.com/friendseeker/friendseeker/internal/joc"
	"github.com/friendseeker/friendseeker/internal/metrics"
	"github.com/friendseeker/friendseeker/internal/obfuscate"
	"github.com/friendseeker/friendseeker/internal/synth"
)

// Core data-model types.
type (
	// UserID identifies a user.
	UserID = checkin.UserID
	// POIID identifies a point of interest.
	POIID = checkin.POIID
	// POI is a point of interest (Definition 1 of the paper).
	POI = checkin.POI
	// CheckIn is a timestamped POI visit (Definition 2).
	CheckIn = checkin.CheckIn
	// Trajectory is a user's time-ordered check-in sequence (Definition 3).
	Trajectory = checkin.Trajectory
	// Dataset is an indexed check-in collection.
	Dataset = checkin.Dataset
	// Pair is an unordered user pair.
	Pair = checkin.Pair
	// Graph is an undirected social graph (Definition 5).
	Graph = graph.Graph
	// Edge is an undirected friendship edge.
	Edge = graph.Edge
)

// Attack types.
type (
	// Config parameterises the attack; the zero value uses the paper's
	// defaults (tau = 7 days, d = 128, k = 3, 1% convergence threshold).
	Config = core.Config
	// FriendSeeker is the trained two-phase attack.
	FriendSeeker = core.FriendSeeker
	// TrainReport summarises a training run.
	TrainReport = core.TrainReport
	// InferReport summarises an inference run (iterations, graphs).
	InferReport = core.InferReport
	// PairScorer answers per-pair decisions against one dataset's frozen
	// reference inference, concurrently; build one with
	// (*FriendSeeker).NewPairScorer.
	PairScorer = core.PairScorer
)

// EdgeKind distinguishes planted real-world and cyber friendships in
// synthetic worlds.
type EdgeKind = synth.EdgeKind

// Edge kinds.
const (
	// EdgeReal marks a physically co-visiting friendship.
	EdgeReal = synth.EdgeReal
	// EdgeCyber marks an online-only friendship with no co-locations.
	EdgeCyber = synth.EdgeCyber
)

// Synthetic-world types (the offline substitute for the Gowalla and
// Brightkite SNAP snapshots; see DESIGN.md section 2).
type (
	// WorldConfig parameterises the synthetic MSN trace generator.
	WorldConfig = synth.Config
	// World is a generated dataset plus ground truth.
	World = synth.World
	// View is a dataset slice with its ground-truth subgraph.
	View = synth.View
	// PairSplit is the 70/30 labelled-pair evaluation protocol.
	PairSplit = synth.PairSplit
)

// Evaluation types.
type (
	// Confusion is a binary confusion matrix.
	Confusion = metrics.Confusion
	// Score bundles precision, recall and F1.
	Score = metrics.Score
)

// New returns an untrained attack. Call Train before Infer.
func New(cfg Config) (*FriendSeeker, error) { return core.New(cfg) }

// ErrCorruptModel reports a model artifact that is truncated, bit-flipped
// or otherwise fails integrity verification in LoadModel. Match with
// errors.Is.
var ErrCorruptModel = core.ErrCorruptModel

// LoadModel restores a trained attack previously written with
// (*FriendSeeker).Save, so inference can run without retraining. Model
// files carry a SHA-256 integrity trailer; a damaged artifact fails with
// ErrCorruptModel rather than restoring a silently wrong model.
func LoadModel(r io.Reader) (*FriendSeeker, error) { return core.Load(r) }

// NewDataset indexes POIs and check-ins into a Dataset.
func NewDataset(pois []POI, checkIns []CheckIn) (*Dataset, error) {
	return checkin.NewDataset(pois, checkIns)
}

// MakePair normalises an unordered user pair.
func MakePair(a, b UserID) Pair { return checkin.MakePair(a, b) }

// GenerateWorld builds a synthetic MSN world (dataset + ground truth).
func GenerateWorld(cfg WorldConfig) (*World, error) { return synth.Generate(cfg) }

// GowallaLikeWorld returns the Gowalla-flavoured generator preset.
func GowallaLikeWorld(seed int64) WorldConfig { return synth.GowallaLike(seed) }

// BrightkiteLikeWorld returns the Brightkite-flavoured generator preset.
func BrightkiteLikeWorld(seed int64) WorldConfig { return synth.BrightkiteLike(seed) }

// TinyWorld returns a miniature preset for demos and tests.
func TinyWorld(seed int64) WorldConfig { return synth.Tiny(seed) }

// Evaluate builds a confusion matrix from aligned predictions and labels.
func Evaluate(predicted, actual []bool) (*Confusion, error) {
	return metrics.Evaluate(predicted, actual)
}

// LoadSNAPCheckIns parses the SNAP Gowalla/Brightkite check-in format, for
// users holding the original datasets the paper evaluates on.
func LoadSNAPCheckIns(r io.Reader) (pois []POI, checkIns []CheckIn, skipped int, err error) {
	return dataset.LoadSNAPCheckIns(r)
}

// LoadSNAPEdges parses the SNAP social-graph edge-list format.
func LoadSNAPEdges(r io.Reader) ([]Edge, int, error) { return dataset.LoadSNAPEdges(r) }

// ReadCheckInsCSV reads the CSV trace format written by WriteCheckInsCSV.
func ReadCheckInsCSV(r io.Reader) (*Dataset, error) { return dataset.ReadCheckInsCSV(r) }

// WriteCheckInsCSV writes a dataset as CSV (one row per check-in).
func WriteCheckInsCSV(w io.Writer, ds *Dataset) error { return dataset.WriteCheckInsCSV(w, ds) }

// ReadEdgesCSV reads a social graph from CSV.
func ReadEdgesCSV(r io.Reader) (*Graph, error) { return dataset.ReadEdgesCSV(r) }

// WriteEdgesCSV writes a social graph as CSV.
func WriteEdgesCSV(w io.Writer, g *Graph) error { return dataset.WriteEdgesCSV(w, g) }

// BlurMode selects an obfuscation blurring variant (Section IV-D).
type BlurMode = obfuscate.BlurMode

// Obfuscation variants.
const (
	// BlurInGrid replaces check-in POIs within the same spatial grid.
	BlurInGrid = obfuscate.BlurInGrid
	// BlurCrossGrid replaces check-in POIs with ones from a neighbouring
	// grid.
	BlurCrossGrid = obfuscate.BlurCrossGrid
)

// HideCheckIns removes approximately the given proportion of check-ins
// (never a user's last record), the paper's "hiding" countermeasure.
func HideCheckIns(ds *Dataset, proportion float64, seed int64) (*Dataset, error) {
	return obfuscate.Hide(ds, proportion, seed)
}

// TargetedHideCheckIns is this repository's future-work extension: it
// hides the rarity-weighted co-presence records first, suppressing the
// friendship-evidence signal harder than random hiding at the same
// budget. window is the co-presence window (e.g. 4 hours).
func TargetedHideCheckIns(ds *Dataset, proportion float64, window time.Duration) (*Dataset, error) {
	return obfuscate.TargetedHide(ds, proportion, window)
}

// BlurCheckIns replaces the locations of approximately the given
// proportion of check-ins, in-grid or cross-grid, using a spatial division
// with the given per-grid POI capacity.
func BlurCheckIns(ds *Dataset, sigma int, mode BlurMode, proportion float64, seed int64) (*Dataset, error) {
	div, err := joc.NewDivision(ds, sigma, core.DefaultTau)
	if err != nil {
		return nil, err
	}
	return obfuscate.Blur(ds, div, mode, proportion, seed)
}
