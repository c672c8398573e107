package core

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"time"
)

// Report is a serializable snapshot of an exploration session: what the user
// would export at the end of a study to accompany the reported findings
// ("the hypotheses the user would like to include in a presentation",
// Section 3). It deliberately contains only derived quantities — p-values,
// invested levels, decisions — never the underlying data.
type Report struct {
	// GeneratedAt is the wall-clock time the report was produced (RFC 3339).
	GeneratedAt string `json:"generated_at"`
	// Alpha is the mFDR control level of the session.
	Alpha float64 `json:"alpha"`
	// Policy names the investing rule that was active.
	Policy string `json:"policy"`
	// InitialWealth and RemainingWealth summarize the α-wealth budget.
	InitialWealth   float64 `json:"initial_wealth"`
	RemainingWealth float64 `json:"remaining_wealth"`
	// Rows is the size of the explored dataset.
	Rows int `json:"rows"`
	// Hypotheses lists every tracked hypothesis in creation order.
	Hypotheses []ReportEntry `json:"hypotheses"`
	// Discoveries and StarredDiscoveries are headline counters over the active
	// hypotheses.
	Discoveries        int `json:"discoveries"`
	StarredDiscoveries int `json:"starred_discoveries"`
}

// ReportEntry is one hypothesis in a Report.
type ReportEntry struct {
	ID             int     `json:"id"`
	Null           string  `json:"null"`
	Alternative    string  `json:"alternative"`
	Source         string  `json:"source"`
	Status         string  `json:"status"`
	Method         string  `json:"method"`
	PValue         float64 `json:"p_value"`
	AlphaInvested  float64 `json:"alpha_invested"`
	Rejected       bool    `json:"rejected"`
	EffectSize     float64 `json:"effect_size"`
	EffectLabel    string  `json:"effect_label"`
	SupportSize    int     `json:"support_size"`
	PopulationSize int     `json:"population_size"`
	// DataMultiplier is the n_H1 annotation; it is encoded as -1 when the
	// required amount of data is unbounded (zero observed effect), because
	// JSON has no representation for +Inf.
	DataMultiplier float64 `json:"data_multiplier"`
	Starred        bool    `json:"starred"`
}

// Entry converts the hypothesis into its serializable report form. It is used
// by Session.Report and by the HTTP gauge endpoint of internal/server, which
// must render hypotheses without handing out internal pointers.
func (h *Hypothesis) Entry() ReportEntry {
	entry := ReportEntry{
		ID:             h.ID,
		Null:           h.Null,
		Alternative:    h.Alternative,
		Source:         h.Source.String(),
		Status:         h.Status.String(),
		Method:         h.Test.Method,
		PValue:         h.Test.PValue,
		AlphaInvested:  h.AlphaInvested,
		Rejected:       h.Rejected,
		EffectSize:     h.Test.EffectSize,
		EffectLabel:    string(h.EffectLabel()),
		SupportSize:    h.SupportSize,
		PopulationSize: h.PopulationSize,
		Starred:        h.Starred,
	}
	if math.IsInf(h.DataMultiplier, 1) || math.IsNaN(h.DataMultiplier) {
		entry.DataMultiplier = -1
	} else {
		entry.DataMultiplier = h.DataMultiplier
	}
	return entry
}

// Report builds the exportable snapshot of the session. now supplies the
// timestamp; pass time.Now in production code and a fixed value in tests.
func (s *Session) Report(now time.Time) Report {
	r := Report{
		GeneratedAt:     now.UTC().Format(time.RFC3339),
		Alpha:           s.alpha,
		Policy:          s.PolicyName(),
		InitialWealth:   s.investor.Config().InitialWealth(),
		RemainingWealth: s.investor.Wealth(),
		Rows:            s.data.NumRows(),
	}
	for _, h := range s.hypotheses {
		r.Hypotheses = append(r.Hypotheses, h.Entry())
		if h.Status == StatusActive && h.Rejected {
			r.Discoveries++
			if h.Starred {
				r.StarredDiscoveries++
			}
		}
	}
	return r
}

// ReadReport parses a report in the JSON form GET /v1/sessions/{id}/report
// serves.
func ReadReport(r io.Reader) (Report, error) {
	var out Report
	dec := json.NewDecoder(r)
	if err := dec.Decode(&out); err != nil {
		return Report{}, fmt.Errorf("core: decoding report: %w", err)
	}
	return out, nil
}
