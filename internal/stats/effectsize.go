package stats

import (
	"math"
)

// EffectMagnitude is a coarse qualitative label for a standardized effect
// size, following Cohen's conventional thresholds. AWARE's UI color-codes
// effect sizes with these labels (Figure 2 (D)).
type EffectMagnitude string

// Conventional magnitude labels.
const (
	EffectNegligible EffectMagnitude = "negligible"
	EffectSmall      EffectMagnitude = "small"
	EffectMedium     EffectMagnitude = "medium"
	EffectLarge      EffectMagnitude = "large"
)

// ClassifyCohensD maps |d| to the conventional Cohen thresholds
// (0.2 small, 0.5 medium, 0.8 large).
func ClassifyCohensD(d float64) EffectMagnitude {
	ad := math.Abs(d)
	switch {
	case ad < 0.2:
		return EffectNegligible
	case ad < 0.5:
		return EffectSmall
	case ad < 0.8:
		return EffectMedium
	default:
		return EffectLarge
	}
}

// ClassifyCramersV maps Cramér's V to the conventional thresholds
// (0.1 small, 0.3 medium, 0.5 large).
func ClassifyCramersV(v float64) EffectMagnitude {
	av := math.Abs(v)
	switch {
	case av < 0.1:
		return EffectNegligible
	case av < 0.3:
		return EffectSmall
	case av < 0.5:
		return EffectMedium
	default:
		return EffectLarge
	}
}
