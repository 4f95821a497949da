package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"slices"
)

//go:embed metrics.json
var catalogJSON []byte

// Catalog is metrics.json: every workload and metric the benchmark
// knows, with the layer each metric belongs to and what it should move.
type Catalog struct {
	HeldOutSeed int64         `json:"held_out_seed"`
	Workloads   []CatWorkload `json:"workloads"`
	EndToEnd    []CatMetric   `json:"end_to_end"`
	PerLayer    []CatMetric   `json:"per_layer"`
	Measured    []CatMetric   `json:"measured"`
}

// CatWorkload is one workload and why it was chosen.
type CatWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// CatMetric is one metric. A result-line metric (end_to_end, per_layer)
// reads the workload's own metric named in Source, or its own name; on
// the workloads in ZeroOn it does not apply and reads 0.
type CatMetric struct {
	Name      string            `json:"name"`
	Unit      string            `json:"unit"`
	Layer     string            `json:"layer"`
	Note      string            `json:"note,omitempty"`
	Source    map[string]string `json:"source,omitempty"`
	ZeroOn    []string          `json:"zero_on,omitempty"`
	Workloads []string          `json:"workloads,omitempty"`
	Moves     []CatMove         `json:"moves,omitempty"`
}

// CatMove names the end-to-end metric and workload a layer metric
// should move.
type CatMove struct {
	Metric   string `json:"metric"`
	Workload string `json:"workload"`
}

// LoadCatalog parses the embedded metrics.json.
func LoadCatalog() (*Catalog, error) {
	var c Catalog
	if err := json.Unmarshal(catalogJSON, &c); err != nil {
		return nil, fmt.Errorf("metrics.json: %w", err)
	}
	return &c, nil
}

// Resolve reads a result-line metric for a workload out of the run's
// measured metrics.
func (m CatMetric) Resolve(workload string, measured map[string]Metric) (Metric, bool) {
	if slices.Contains(m.ZeroOn, workload) {
		return Metric{Value: 0, Unit: m.Unit}, true
	}
	name := m.Name
	if s, ok := m.Source[workload]; ok {
		name = s
	}
	v, ok := measured[name]
	return Metric{Value: v.Value, Unit: m.Unit}, ok
}
