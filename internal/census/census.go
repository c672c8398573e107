// Package census generates the synthetic census dataset and the user-study
// exploration workflows used by Exp. 2 of the paper.
//
// The original evaluation uses the UCI Adult ("Census") dataset and 115
// hypotheses collected from a user study. Neither artifact ships with the
// paper, so this package substitutes (a) a synthetic census table with the
// same attributes and a set of planted, documented correlations (salary
// depends on education, gender, age and hours; marital status depends on
// age, ...) and (b) a deterministic workflow generator that emits the same
// *shape* of hypotheses the study participants produced: distribution-vs-
// population comparisons and subgroup-vs-complement comparisons over chains
// of filters. DESIGN.md discusses why this substitution preserves the
// behaviour the experiment measures.
package census

import (
	"fmt"
	"math"
	"math/rand"

	"aware/internal/colstore"
	"aware/internal/dataset"
)

// Attribute names of the synthetic census table.
const (
	ColGender        = "gender"
	ColAge           = "age"
	ColEducation     = "education"
	ColMaritalStatus = "marital_status"
	ColOccupation    = "occupation"
	ColHoursPerWeek  = "hours_per_week"
	ColSalaryOver50K = "salary_over_50k"
)

// Category domains, ordered as they appear in the paper's figures.
var (
	Genders        = []string{"Male", "Female", "Other"}
	Educations     = []string{"HS", "Bachelor", "Master", "PhD"}
	MaritalStatus  = []string{"Married", "Never-Married", "Not-Married", "Widowed"}
	Occupations    = []string{"Admin", "Craft", "Exec-Managerial", "Prof-Specialty", "Sales", "Service"}
	educationYears = map[string]float64{"HS": 12, "Bachelor": 16, "Master": 18, "PhD": 22}
)

// Config controls the synthetic census generator.
type Config struct {
	// Rows is the number of people to generate.
	Rows int
	// Seed drives the deterministic random source.
	Seed int64
	// SignalStrength scales the planted correlations; 1 is the default
	// calibration, 0 removes every association (useful for null experiments
	// without shuffling).
	SignalStrength float64
}

// Person is one generated census row, in the column order of the table
// (Columns). EachRow streams Person values so million-row datasets can be
// written to disk without ever materializing the table.
type Person struct {
	Gender        string
	Age           float64
	Education     string
	MaritalStatus string
	Occupation    string
	HoursPerWeek  float64
	SalaryOver50K bool
}

// Columns lists the census column names in table order — the header EachRow
// consumers write.
func Columns() []string {
	return []string{ColGender, ColAge, ColEducation, ColMaritalStatus,
		ColOccupation, ColHoursPerWeek, ColSalaryOver50K}
}

// Schema returns the storage schema of the census table in column order —
// the explicit schema for ingesting censusgen CSV output (bypassing
// inference, which would type the integral-valued age and hours columns as
// int64) and for streaming the generator straight into a snapshot builder.
func Schema() colstore.Schema {
	return colstore.Schema{
		{Name: ColGender, Kind: colstore.Categorical},
		{Name: ColAge, Kind: colstore.Float64},
		{Name: ColEducation, Kind: colstore.Categorical},
		{Name: ColMaritalStatus, Kind: colstore.Categorical},
		{Name: ColOccupation, Kind: colstore.Categorical},
		{Name: ColHoursPerWeek, Kind: colstore.Float64},
		{Name: ColSalaryOver50K, Kind: colstore.Bool},
	}
}

// AppendTo appends the Person as one row of a builder over Schema(), through
// the builder's typed setters — the bridge that streams the generator into a
// snapshot with no value boxed and a few row batches in memory.
func (p Person) AppendTo(b *colstore.RowBuilder) error {
	b.SetString(0, p.Gender)
	b.SetFloat64(1, p.Age)
	b.SetString(2, p.Education)
	b.SetString(3, p.MaritalStatus)
	b.SetString(4, p.Occupation)
	b.SetFloat64(5, p.HoursPerWeek)
	b.SetBool(6, p.SalaryOver50K)
	return b.EndRow()
}

// generatePerson draws one census row. The rng call order is the generator's
// wire format: Generate and EachRow produce identical datasets because both
// call this exact sequence once per row.
func generatePerson(rng *rand.Rand, s float64) Person {
	var p Person

	// Gender: roughly balanced, as in Figure 1 (A).
	g := rng.Float64()
	switch {
	case g < 0.49:
		p.Gender = "Male"
	case g < 0.98:
		p.Gender = "Female"
	default:
		p.Gender = "Other"
	}

	// Age: truncated normal around 40.
	age := 40 + 13*rng.NormFloat64()
	if age < 17 {
		age = 17 + rng.Float64()*3
	}
	if age > 90 {
		age = 90
	}
	p.Age = math.Round(age)

	// Education: mostly HS/Bachelor, few PhDs; slightly more likely for
	// older people.
	eduRoll := rng.Float64()
	ageBoost := s * 0.002 * (p.Age - 40)
	switch {
	case eduRoll < 0.45-ageBoost:
		p.Education = "HS"
	case eduRoll < 0.80-ageBoost:
		p.Education = "Bachelor"
	case eduRoll < 0.95:
		p.Education = "Master"
	default:
		p.Education = "PhD"
	}

	// Marital status depends on age.
	mRoll := rng.Float64()
	youngShift := s * 0.3 * sigmoid((30-p.Age)/5)
	switch {
	case mRoll < 0.15+youngShift:
		p.MaritalStatus = "Never-Married"
	case mRoll < 0.65:
		p.MaritalStatus = "Married"
	case mRoll < 0.92:
		p.MaritalStatus = "Not-Married"
	default:
		p.MaritalStatus = "Widowed"
	}

	// Occupation loosely follows education.
	oRoll := rng.Float64()
	if p.Education == "Master" || p.Education == "PhD" {
		if oRoll < 0.5*s {
			p.Occupation = "Prof-Specialty"
		} else if oRoll < 0.7 {
			p.Occupation = "Exec-Managerial"
		} else {
			p.Occupation = Occupations[rng.Intn(len(Occupations))]
		}
	} else {
		p.Occupation = Occupations[rng.Intn(len(Occupations))]
	}

	// Hours per week: around 40, executives and professionals work more.
	h := 40 + 8*rng.NormFloat64()
	if p.Occupation == "Exec-Managerial" || p.Occupation == "Prof-Specialty" {
		h += s * 5
	}
	if h < 5 {
		h = 5
	}
	if h > 99 {
		h = 99
	}
	p.HoursPerWeek = math.Round(h)

	// Salary: logistic model over education years, age, hours and gender.
	// The gender gap and the education premium are the correlations the
	// example session of Section 2 discovers.
	// Covariates are centred so that the overall >50k rate stays near 25%
	// for every signal strength, including the zero-signal null census.
	logit := -1.1 +
		s*0.38*(educationYears[p.Education]-14) +
		s*0.035*(p.Age-40) +
		s*0.04*(p.HoursPerWeek-40)
	if p.Gender == "Female" {
		logit -= s * 0.9
	} else {
		logit += s * 0.1
	}
	if p.MaritalStatus == "Married" {
		logit += s * 0.5
	}
	p.SalaryOver50K = rng.Float64() < sigmoid(logit)
	return p
}

// EachRow generates the synthetic census one row at a time, calling fn with
// each row index and Person until the configured row count is reached or fn
// returns an error. It draws the exact same random sequence as Generate, so
// streaming consumers (cmd/censusgen writing million-row CSVs) see
// value-identical data while holding only one row in memory.
func EachRow(cfg Config, fn func(i int, p Person) error) error {
	if cfg.Rows <= 0 {
		return fmt.Errorf("census: rows must be positive, got %d", cfg.Rows)
	}
	if cfg.SignalStrength < 0 {
		return fmt.Errorf("census: signal strength must be >= 0, got %v", cfg.SignalStrength)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for i := 0; i < cfg.Rows; i++ {
		if err := fn(i, generatePerson(rng, cfg.SignalStrength)); err != nil {
			return err
		}
	}
	return nil
}

// Generate builds the synthetic census table.
func Generate(cfg Config) (*dataset.Table, error) {
	genders := make([]string, 0, max(cfg.Rows, 0))
	ages := make([]float64, 0, max(cfg.Rows, 0))
	educations := make([]string, 0, max(cfg.Rows, 0))
	marital := make([]string, 0, max(cfg.Rows, 0))
	occupations := make([]string, 0, max(cfg.Rows, 0))
	hours := make([]float64, 0, max(cfg.Rows, 0))
	salary := make([]bool, 0, max(cfg.Rows, 0))
	err := EachRow(cfg, func(i int, p Person) error {
		genders = append(genders, p.Gender)
		ages = append(ages, p.Age)
		educations = append(educations, p.Education)
		marital = append(marital, p.MaritalStatus)
		occupations = append(occupations, p.Occupation)
		hours = append(hours, p.HoursPerWeek)
		salary = append(salary, p.SalaryOver50K)
		return nil
	})
	if err != nil {
		return nil, err
	}

	return dataset.NewTable(
		dataset.NewCategoricalColumn(ColGender, genders),
		dataset.NewFloatColumn(ColAge, ages),
		dataset.NewCategoricalColumn(ColEducation, educations),
		dataset.NewCategoricalColumn(ColMaritalStatus, marital),
		dataset.NewCategoricalColumn(ColOccupation, occupations),
		dataset.NewFloatColumn(ColHoursPerWeek, hours),
		dataset.NewBoolColumn(ColSalaryOver50K, salary),
	)
}

// Randomize returns a copy of the census in which every column has been
// independently permuted, destroying all associations: the "Random Census"
// dataset of Figure 6 (d)(e), on which every discovery is false by
// construction.
func Randomize(t *dataset.Table, seed int64) (*dataset.Table, error) {
	rng := rand.New(rand.NewSource(seed))
	return t.ShuffleAll(rng)
}

// sigmoid is the logistic function.
func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }
