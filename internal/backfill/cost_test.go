package backfill

import "testing"

func TestCostReportMatchesPaperArithmetic(t *testing.T) {
	c := Cost(DefaultCostConfig())
	// Paper: one kWh ~ 72,300 conversions, ~24 GiB saved, breakeven $0.58,
	// 964 machines at 278 kW doing 5,583 chunks/s; 181.5M images and
	// ~58.8 TiB saved per machine-year; ~$9,031/yr at S3 IA pricing.
	if c.ConversionsPerKWh < 65000 || c.ConversionsPerKWh > 80000 {
		t.Fatalf("conversions/kWh = %.0f", c.ConversionsPerKWh)
	}
	if c.GiBSavedPerKWh < 20 || c.GiBSavedPerKWh > 28 {
		t.Fatalf("GiB/kWh = %.1f", c.GiBSavedPerKWh)
	}
	if c.BreakevenUSDPerKWh < 0.45 || c.BreakevenUSDPerKWh > 0.70 {
		t.Fatalf("breakeven $/kWh = %.2f", c.BreakevenUSDPerKWh)
	}
	if c.ImagesPerYearPerMachine < 1.7e8 || c.ImagesPerYearPerMachine > 1.95e8 {
		t.Fatalf("images/yr/machine = %.3g", c.ImagesPerYearPerMachine)
	}
	if c.TiBSavedPerYearPerMachine < 50 || c.TiBSavedPerYearPerMachine > 65 {
		t.Fatalf("TiB/yr/machine = %.1f", c.TiBSavedPerYearPerMachine)
	}
	if c.S3AnnualUSDPerMachine < 7500 || c.S3AnnualUSDPerMachine > 10500 {
		t.Fatalf("S3 $/yr/machine = %.0f", c.S3AnnualUSDPerMachine)
	}
}
