// Package apicfg is the user-facing JSON schema for accelerator
// descriptions, shared by cmd/neurometer (the -config flag) and the
// neurometerd serving layer (the /v1/chip/build and /v1/perfsim/simulate
// request bodies). It mirrors chip.Config with string enums for data
// types, topologies and port kinds, so the same chip description works on
// the command line and over the wire.
package apicfg

import (
	"bytes"
	"encoding/json"

	"neurometer/internal/chip"
	"neurometer/internal/guard"
	"neurometer/internal/maclib"
	"neurometer/internal/periph"
	"neurometer/internal/refchips"
)

// Config is the JSON accelerator description.
type Config struct {
	Name    string  `json:"name"`
	TechNM  int     `json:"tech_nm"`
	Vdd     float64 `json:"vdd,omitempty"`
	ClockHz float64 `json:"clock_hz,omitempty"`
	// TargetTOPS lets the tool search the clock instead.
	TargetTOPS float64 `json:"target_tops,omitempty"`
	Tx         int     `json:"tx"`
	Ty         int     `json:"ty"`

	Core struct {
		NumTUs         int    `json:"num_tus"`
		TURows         int    `json:"tu_rows"`
		TUCols         int    `json:"tu_cols"`
		TUDataType     string `json:"tu_data_type"`
		TUInterconnect string `json:"tu_interconnect,omitempty"` // unicast | multicast
		NumRTs         int    `json:"num_rts,omitempty"`
		RTInputs       int    `json:"rt_inputs,omitempty"`
		VULanes        int    `json:"vu_lanes,omitempty"`
		HasSU          bool   `json:"has_su,omitempty"`
		Mem            []struct {
			Name          string `json:"name"`
			CapacityBytes int64  `json:"capacity_bytes"`
			BlockBytes    int    `json:"block_bytes,omitempty"`
			Banks         int    `json:"banks,omitempty"`
		} `json:"mem"`
	} `json:"core"`

	NoCBisectionGBps float64 `json:"noc_bisection_gbps,omitempty"`
	OffChip          []struct {
		Kind  string  `json:"kind"` // ddr | hbm | pcie | ici | dma
		GBps  float64 `json:"gbps"`
		Count int     `json:"count,omitempty"`
	} `json:"off_chip,omitempty"`
	WhiteSpaceFrac float64 `json:"white_space_frac,omitempty"`
	AreaBudgetMM2  float64 `json:"area_budget_mm2,omitempty"`
	PowerBudgetW   float64 `json:"power_budget_w,omitempty"`
}

// dataTypes and portKinds map the schema's enum strings to the model's
// values; an empty tu_data_type means int8.
var (
	dataTypes = map[string]maclib.DataType{
		"": maclib.Int8, "int8": maclib.Int8, "int16": maclib.Int16,
		"int32": maclib.Int32, "bf16": maclib.BF16,
		"fp16": maclib.FP16, "fp32": maclib.FP32,
	}
	portKinds = map[string]periph.Kind{
		"ddr":  periph.DDRPort,
		"hbm":  periph.HBMPort,
		"pcie": periph.PCIePort,
		"ici":  periph.ICILink,
		"dma":  periph.DMAEngine,
	}
)

// ChipConfig converts the JSON schema to the model's configuration.
// Unknown enum strings fail with guard.ErrInvalidConfig.
func (j Config) ChipConfig() (chip.Config, error) {
	cfg := chip.Config{
		Name: j.Name, TechNM: j.TechNM, Vdd: j.Vdd,
		ClockHz: j.ClockHz, TargetTOPS: j.TargetTOPS,
		Tx: j.Tx, Ty: j.Ty,
		NoCBisectionGBps: j.NoCBisectionGBps,
		WhiteSpaceFrac:   j.WhiteSpaceFrac,
		AreaBudgetMM2:    j.AreaBudgetMM2,
		PowerBudgetW:     j.PowerBudgetW,
	}
	d, ok := dataTypes[j.Core.TUDataType]
	if !ok {
		return cfg, guard.Invalid("unknown tu_data_type %q", j.Core.TUDataType)
	}
	cfg.Core = chip.CoreConfig{
		NumTUs: j.Core.NumTUs, TURows: j.Core.TURows, TUCols: j.Core.TUCols,
		TUDataType: d,
		NumRTs:     j.Core.NumRTs, RTInputs: j.Core.RTInputs,
		VULanes: j.Core.VULanes, HasSU: j.Core.HasSU,
	}
	for _, m := range j.Core.Mem {
		cfg.Core.Mem = append(cfg.Core.Mem, chip.MemSegment{
			Name: m.Name, CapacityBytes: m.CapacityBytes,
			BlockBytes: m.BlockBytes, Banks: m.Banks,
		})
	}
	for _, p := range j.OffChip {
		kind, ok := portKinds[p.Kind]
		if !ok {
			return cfg, guard.Invalid("unknown off_chip kind %q", p.Kind)
		}
		cfg.OffChip = append(cfg.OffChip, chip.OffChipPort{Kind: kind, GBps: p.GBps, Count: p.Count})
	}
	return cfg, nil
}

// Parse decodes a JSON accelerator description into a chip configuration.
// Unknown fields are rejected: a typo like "clokc_hz" silently falling back
// to a default would misprice a chip, which is worse than an error.
func Parse(raw []byte) (chip.Config, error) {
	var j Config
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&j); err != nil {
		return chip.Config{}, guard.Invalid("apicfg: %v", err)
	}
	return j.ChipConfig()
}

// Preset resolves a bundled reference-chip name ("tpuv1" | "tpuv2" |
// "eyeriss") to its configuration.
func Preset(name string) (chip.Config, error) {
	switch name {
	case "tpuv1":
		return refchips.TPUv1(), nil
	case "tpuv2":
		return refchips.TPUv2(), nil
	case "eyeriss":
		return refchips.Eyeriss(), nil
	}
	return chip.Config{}, guard.Invalid("unknown preset %q", name)
}

// Resolve picks a chip configuration from a preset name or an inline JSON
// description — the shape both serving endpoints and the CLI share.
// Exactly one of the two must be provided.
func Resolve(preset string, raw json.RawMessage) (chip.Config, error) {
	switch {
	case preset != "" && len(raw) > 0:
		return chip.Config{}, guard.Invalid("give either a preset or an inline config, not both")
	case preset != "":
		return Preset(preset)
	case len(raw) > 0:
		return Parse(raw)
	}
	return chip.Config{}, guard.Invalid("a preset or an inline config is required")
}
