package expt

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
)

func quickCfg() Config { return Config{Seed: 42, Trials: 1, Quick: true} }

func TestIDsComplete(t *testing.T) {
	ids := IDs()
	if len(ids) != 20 {
		t.Fatalf("registry has %d experiments: %v", len(ids), ids)
	}
	if ids[0] != "E1" || ids[len(ids)-1] != "E20" {
		t.Errorf("IDs order: %v", ids)
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run("E99", quickCfg()); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestTableRender(t *testing.T) {
	tbl := &Table{
		ID:      "T",
		Title:   "demo",
		Claim:   "c",
		Columns: []string{"a", "long_column"},
		Notes:   []string{"a note"},
	}
	tbl.AddRow(1, 2.34567)
	tbl.AddRow("xyz", 0.5)
	out := tbl.Render()
	for _, want := range []string{"T — demo", "paper claim: c", "long_column", "2.35", "xyz", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q in:\n%s", want, out)
		}
	}
}

func TestConfigTrialsDefault(t *testing.T) {
	if (Config{}).trials() != 3 {
		t.Error("default trials")
	}
	if (Config{Trials: 7}).trials() != 7 {
		t.Error("explicit trials")
	}
}

// quickDigests pins the sha256 of every experiment's rendered table
// under quickCfg(). Tables are a pure function of the seed at any
// parallelism, so any change to engine delivery order, admission,
// random-stream consumption or protocol logic moves at least one of
// these. They must never be re-pinned to absorb an engine refactor.
var quickDigests = map[string]string{
	"E1":  "afb03f0e517ded3fea02d87732b0d37313effa1b3fd46c402a5bc9d38d93ef4c",
	"E2":  "eedb1d8bc7790f2b30f491d80503f0e64f821bf1d77a12e6b7b352dc19741508",
	"E3":  "722348bf90f5fd9999d30a525cd5d952554502a7031f6cbb69ef3f97ed957c7b",
	"E4":  "3f05fd4e9f8cfa6d500c0c2ab71aeef8b1536672141a5b26ada69fb15e425103",
	"E5":  "c45fb2515ec0a381a831e7ab7683bf6cf9c696f3396f268bff6ceb4678d71fed",
	"E6":  "8cfb680611cb9e92df73365d3301a670f428dfc2db933b4db00e06237b33d2b0",
	"E7":  "93928ef90c0097a8b9d3a84689d64cdcc7bf0a91b890bc660b32286ff72a315e",
	"E8":  "df732ddb8b6e9dcac2f284e49b47d79c53825f20701544aba7de32e6ffb1099e",
	"E9":  "9193dd4fd6afff066e807d35595e3475a44c93217904f882fab35390dda32f90",
	"E10": "17e80ae286fb8fe00fd4e7cbd7411e79f4b9201e1673005c4da556fdff6a93d3",
	"E11": "803864d47c6b589aa8ab079afc6ebd6bd9c8652734d6b206323a3735674a2d47",
	"E12": "e35bd71a8f497c54a5867a96b7c41f60ab22cf49f895d7c1a73809a775ac95de",
	"E13": "6da75d3dd806070baec13f7089c59f6cdcb70fd4b9c1ecc2d305c3804869bed0",
	"E14": "ddf64a75229af300a85a97a329b5d589d645ef9fc6d6d43267f8b1f610d26cfe",
	"E15": "2911f58edba5561804b5abda7ceff9201529c8b3e8ec420a125ff03da02e6e4a",
	"E16": "5a5952591c6e596308febc8de49c5e446c682f6369dd9c3914a74c0331d515cc",
	"E17": "3846e9a005a61020607f150d0e706d0168bec94484c8f0a88191748596a36072",
	"E18": "63152db0bda2d5bdaf4004c80490638dff047a66d98c0989102514d9eac66cd8",
	"E19": "cd61d1c612848edc3b31bb3f5737407daa51081f7a240fc89bba9fbe974ab4b8",
	"E20": "42a447fa2444f0aed0014f3439c7d889cf16534b09156212f160f2c92490440e",
}

// Every experiment must run to completion in quick mode and produce a
// well-formed table whose rendering matches its pinned digest. These
// are the integration smoke tests of the whole reproduction pipeline.
func TestAllExperimentsQuick(t *testing.T) {
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			tbl, err := Run(id, quickCfg())
			if err != nil {
				t.Fatalf("%s failed: %v", id, err)
			}
			if tbl.ID != id {
				t.Errorf("table ID %q", tbl.ID)
			}
			if len(tbl.Rows) == 0 {
				t.Fatalf("%s produced no rows", id)
			}
			for _, row := range tbl.Rows {
				if len(row) != len(tbl.Columns) {
					t.Errorf("%s row width %d != %d columns", id, len(row), len(tbl.Columns))
				}
			}
			out := tbl.Render()
			if out == "" {
				t.Error("empty render")
			}
			sum := sha256.Sum256([]byte(out))
			if got := hex.EncodeToString(sum[:]); got != quickDigests[id] {
				t.Errorf("%s table digest %s, pinned %s; rendered:\n%s", id, got, quickDigests[id], out)
			}
		})
	}
}

func TestByzCountHelper(t *testing.T) {
	if byzCount(256, 0.45) != 12 {
		t.Errorf("byzCount(256,0.45) = %d", byzCount(256, 0.45))
	}
	if byzCount(2, 2) != 1 { // clamped below n
		t.Errorf("clamp failed: %d", byzCount(2, 2))
	}
	if byzCount(10, -1) != 0 {
		t.Errorf("floor failed: %d", byzCount(10, -1))
	}
}

func TestFarMask(t *testing.T) {
	// Build via the E2 helper on a tiny graph.
	tbl, err := E2(Config{Seed: 1, Trials: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Errorf("E2 rows = %d", len(tbl.Rows))
	}
}
