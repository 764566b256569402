package exp

import (
	"bytes"
	"crypto/sha256"
	"encoding/csv"
	"encoding/hex"
	"testing"

	"fairtcim/internal/fairim"
	"fairtcim/internal/stats"
)

// quickTablePins holds, per engine and experiment, the SHA-256 prefix of
// the table a quick run at seed 7 writes as CSV, with its wall-clock "ms"
// column dropped. The experiments reach every solver entry point, so a
// refactor that moves any number in any table shows here. serve-cache is
// left out: its rows are latencies.
var quickTablePins = map[fairim.Engine]map[string]string{
	fairim.EngineForwardMC: {
		"abl-celf":       "817ce8a7e5c19998",
		"abl-curvature":  "9b5bdb54895ed76e",
		"abl-discount":   "36e7639304165a63",
		"abl-icm":        "1bda9027bf292bb0",
		"abl-lt":         "59ef6397b63e0039",
		"abl-ris":        "91d075159991d9bf",
		"abl-robust":     "b5aaba138a9231b2",
		"abl-samples":    "66bed0060b4622cc",
		"abl-saturation": "f0b2be76b57c317f",
		"accuracy":       "d15ffde38e5c562f",
		"fig1":           "7e7eb8e1442ef633",
		"fig10a":         "6b9f9b0ddfedd445",
		"fig10b":         "185328e20ec9bcde",
		"fig10c":         "71b6a8443b3d57fd",
		"fig4a":          "30b28e426c9c3965",
		"fig4b":          "5e03265a3c56c4b8",
		"fig4c":          "41a88de13adf7991",
		"fig5a":          "596b7fdeccfb5292",
		"fig5b":          "49a306320bc1fcf4",
		"fig5c":          "abeefed65ee8b200",
		"fig6a":          "d80d40888186c95b",
		"fig6b":          "d0cc8a54b470e13d",
		"fig6c":          "43d900d1d50ca026",
		"fig7a":          "1a5f9ef2b70ba460",
		"fig7b":          "237f5db8cc27ab10",
		"fig7c":          "cc81983c114f41a1",
		"fig8a":          "afa4062bea95cbf1",
		"fig8b":          "b8fd6d1f04b23a62",
		"fig8c":          "a29f3565fde84321",
		"fig9a":          "01e87c1087d2a89a",
		"fig9b":          "52431ef7bc361422",
		"fig9c":          "b21e3300815416ed",
		"tab-baselines":  "0caf35ff2077c6ba",
		"tab-datasets":   "7ab6dd70c92bc15c",
	},
	fairim.EngineRIS: {
		"abl-celf":       "ffe6336ebbb29f19",
		"abl-curvature":  "019efcfea789a339",
		"abl-discount":   "36e7639304165a63",
		"abl-icm":        "1bda9027bf292bb0",
		"abl-lt":         "59ef6397b63e0039",
		"abl-ris":        "91d075159991d9bf",
		"abl-robust":     "f63ce3d2fa7128a0",
		"abl-samples":    "66bed0060b4622cc",
		"abl-saturation": "6894afc1650af997",
		"accuracy":       "b10938141cd36706",
		"fig1":           "3b3df7383ff9bcec",
		"fig10a":         "996b7930cfbd2c40",
		"fig10b":         "a15e1fb2911723c5",
		"fig10c":         "75847a7eb28cb4ea",
		"fig4a":          "d585d742e27c456e",
		"fig4b":          "b00d732742878d02",
		"fig4c":          "3507331443736b5e",
		"fig5a":          "4fcce7b2a10b5bf5",
		"fig5b":          "b8e1c2d17a4ed785",
		"fig5c":          "8183d0f8190e9064",
		"fig6a":          "02f0ab76505f2bf1",
		"fig6b":          "109b9f1ab629c142",
		"fig6c":          "6174807052a381e7",
		"fig7a":          "d8f696327f76387e",
		"fig7b":          "332515a76aca412b",
		"fig7c":          "d97a3052cf594471",
		"fig8a":          "e69af25ee71dfddb",
		"fig8b":          "528740921b1b5a86",
		"fig8c":          "cd0a4aaebee7705f",
		"fig9a":          "95481dcd921ac85e",
		"fig9b":          "8e6b194304f68c1f",
		"fig9c":          "37a7a199a66f4685",
		"tab-baselines":  "2effd7d554f9b01d",
		"tab-datasets":   "7ab6dd70c92bc15c",
	},
}

// tableDigest hashes t's CSV without its "ms" column.
func tableDigest(t *stats.Table) (string, error) {
	var buf bytes.Buffer
	if err := t.WriteCSV(&buf); err != nil {
		return "", err
	}
	records, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		return "", err
	}
	drop := -1
	for i, c := range records[0] {
		if c == "ms" {
			drop = i
		}
	}
	var out bytes.Buffer
	w := csv.NewWriter(&out)
	for _, rec := range records {
		if drop >= 0 {
			rec = append(rec[:drop:drop], rec[drop+1:]...)
		}
		if err := w.Write(rec); err != nil {
			return "", err
		}
	}
	w.Flush()
	sum := sha256.Sum256(out.Bytes())
	return hex.EncodeToString(sum[:8]), nil
}

// TestQuickTablesPinned runs every experiment but serve-cache in quick
// mode at seed 7 under both engines and compares each table's digest with
// its pin.
func TestQuickTablesPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow even in quick mode")
	}
	for engine, pins := range quickTablePins {
		o := Options{Seed: 7, Quick: true, Engine: engine}
		for _, e := range All() {
			if e.ID == "serve-cache" {
				continue
			}
			t.Run(engine.String()+"/"+e.ID, func(t *testing.T) {
				t.Parallel()
				table, err := e.Run(o)
				if err != nil {
					t.Fatal(err)
				}
				got, err := tableDigest(table)
				if err != nil {
					t.Fatal(err)
				}
				if want := pins[e.ID]; got != want {
					t.Errorf("%s under %s: table digest %s, pinned %s", e.ID, engine, got, want)
				}
			})
		}
	}
}
