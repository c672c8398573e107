package dataset

// Test helpers of this package that the external tests (package dataset_test,
// which may import core) need.
var (
	WideTwin         = wideTwin
	SnapshotVariants = snapshotVariants
)

const RaceEnabled = raceEnabled

// CacheKey is the selection cache's key of p, a code-set key appended to
// dst.
func (c *SelectionCache) CacheKey(p Predicate, dst []byte) ([]byte, error) { return c.key(p, dst) }
