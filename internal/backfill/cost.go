package backfill

// CostConfig holds the fleet figures the §5.6.1 cost-effectiveness
// arithmetic reads.
type CostConfig struct {
	// TargetMachines is the full backfill allocation (paper: 964 machines
	// reaching 5,583 chunks/s).
	TargetMachines int
	// ImagesPerSecPerMachine is per-machine throughput (paper: 5.75 on a
	// Xeon E5-2650v2; override with this repository's measured rate for
	// calibrated runs).
	ImagesPerSecPerMachine float64
	// PowerPerMachineKW is chassis power per backfill machine (paper:
	// 278 kW across the backfill footprint).
	PowerPerMachineKW float64
	// AvgImageMB and SavingsRatio size the savings (paper: 1.5 MB
	// average, 22.69% average savings).
	AvgImageMB   float64
	SavingsRatio float64
}

// DefaultCostConfig mirrors §5.6's published numbers.
func DefaultCostConfig() CostConfig {
	return CostConfig{
		TargetMachines:         964,
		ImagesPerSecPerMachine: 5.79, // 5583/964
		PowerPerMachineKW:      0.288,
		AvgImageMB:             1.5,
		SavingsRatio:           0.227,
	}
}

// CostReport is the §5.6.1 cost-effectiveness analysis.
type CostReport struct {
	ClusterPowerKW            float64
	ChunksPerSecond           float64
	ConversionsPerKWh         float64
	GiBSavedPerKWh            float64
	BreakevenUSDPerKWh        float64 // vs a depowered $120 5TB drive
	ImagesPerYearPerMachine   float64
	TiBSavedPerYearPerMachine float64
	S3AnnualUSDPerMachine     float64 // S3 IA $0.0125/GiB-month
}

// Cost computes the §5.6.1 arithmetic from a fleet configuration.
func Cost(cfg CostConfig) CostReport {
	power := float64(cfg.TargetMachines) * cfg.PowerPerMachineKW
	rate := float64(cfg.TargetMachines) * cfg.ImagesPerSecPerMachine
	convPerKWh := rate * 3600 / power
	gibSaved := convPerKWh * cfg.AvgImageMB * cfg.SavingsRatio * 1e6 / (1 << 30)
	// $120 buys 5 TB depowered: $/GiB = 120 / (5e12/2^30).
	usdPerGiB := 120.0 / (5e12 / (1 << 30))
	imagesYear := cfg.ImagesPerSecPerMachine * 365 * 24 * 3600
	tibYear := imagesYear * cfg.AvgImageMB * cfg.SavingsRatio * 1e6 / (1 << 40)
	gibYear := tibYear * 1024
	return CostReport{
		ClusterPowerKW:            power,
		ChunksPerSecond:           rate,
		ConversionsPerKWh:         convPerKWh,
		GiBSavedPerKWh:            gibSaved,
		BreakevenUSDPerKWh:        gibSaved * usdPerGiB,
		ImagesPerYearPerMachine:   imagesYear,
		TiBSavedPerYearPerMachine: tibYear,
		S3AnnualUSDPerMachine:     gibYear * 0.0125 * 12,
	}
}
