package dataset

// Test helpers of this package that the external tests (package dataset_test,
// which may import core) need.
var (
	WideTwin         = wideTwin
	SnapshotVariants = snapshotVariants
)

const RaceEnabled = raceEnabled
