//! Output checks from outside the program: `golden/expected.json` holds,
//! per program class × device, the tile sizes the compiler must choose and
//! the simulated statistics of the generated code, and per `table_repro`
//! cell its simulated throughput.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use hybrid_bench::json::Json;

use crate::workload::Slot;

/// Simulated statistics are deterministic; the tolerance only absorbs the
/// decimal round trip through the response line and this file.
pub const REL_TOL: f64 = 1e-9;

pub fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= REL_TOL * a.abs().max(b.abs())
}

/// What one compiled class must look like.
#[derive(Clone, Debug, PartialEq)]
pub struct Expected {
    pub h: i64,
    pub w: Vec<i64>,
    pub launches: u64,
    pub smem_bytes: u64,
    pub gstencils: f64,
}

impl Expected {
    /// Reads the checked fields of a compile response.
    pub fn from_response(response: &Json) -> Option<Expected> {
        Expected::read(response, "gstencils_per_s")
    }

    /// The same fields of a response (`gstencils_per_s`) or of an entry of
    /// the expected file (`gstencils`).
    fn read(v: &Json, gstencils_key: &str) -> Option<Expected> {
        Some(Expected {
            h: v.get("h")?.as_i64()?,
            w: v.get("w")?
                .as_arr()?
                .iter()
                .map(Json::as_i64)
                .collect::<Option<_>>()?,
            launches: v.get("launches")?.as_u64()?,
            smem_bytes: v.get("smem_bytes")?.as_u64()?,
            gstencils: v.get(gstencils_key)?.as_f64()?,
        })
    }

    fn matches(&self, other: &Expected) -> bool {
        self.h == other.h
            && self.w == other.w
            && self.launches == other.launches
            && self.smem_bytes == other.smem_bytes
            && close(self.gstencils, other.gstencils)
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("h", Json::Int(self.h)),
            (
                "w",
                Json::Arr(self.w.iter().map(|&x| Json::Int(x)).collect()),
            ),
            ("launches", Json::UInt(self.launches)),
            ("smem_bytes", Json::UInt(self.smem_bytes)),
            ("gstencils", Json::Num(self.gstencils)),
        ])
    }
}

/// The parsed expected file.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Golden {
    /// Keyed by [`crate::workload::Class::key`].
    pub programs: BTreeMap<String, Expected>,
    /// Keyed by `compiler|stencil`.
    pub table: BTreeMap<String, f64>,
}

pub fn golden_path(bench_dir: &Path) -> PathBuf {
    bench_dir.join("golden").join("expected.json")
}

impl Golden {
    pub fn load(path: &Path) -> Result<Golden, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Golden::parse(&text)
            .ok_or_else(|| format!("{}: not an expected-outputs file", path.display()))
    }

    fn parse(text: &str) -> Option<Golden> {
        let doc = Json::parse(text).ok()?;
        let Json::Obj(programs) = doc.get("programs")? else {
            return None;
        };
        let Json::Obj(table) = doc.get("table")? else {
            return None;
        };
        Some(Golden {
            programs: programs
                .iter()
                .map(|(k, v)| Some((k.clone(), Expected::read(v, "gstencils")?)))
                .collect::<Option<_>>()?,
            table: table
                .iter()
                .map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                .collect::<Option<_>>()?,
        })
    }

    pub fn render(&self) -> String {
        Json::Obj(vec![
            (
                "programs".to_string(),
                Json::Obj(
                    self.programs
                        .iter()
                        .map(|(k, e)| (k.clone(), e.to_json()))
                        .collect(),
                ),
            ),
            (
                "table".to_string(),
                Json::Obj(
                    self.table
                        .iter()
                        .map(|(k, &g)| (k.clone(), Json::Num(g)))
                        .collect(),
                ),
            ),
        ])
        .render()
    }

    /// Checks one compile response against what its request asked for and
    /// what this file expects. `Err` names the first failed check; every
    /// `Err` counts in `failed_share`.
    pub fn check_response(&self, slot: &Slot, response: &Json) -> Result<Expected, String> {
        if response.get("status").and_then(Json::as_str) != Some("ok") {
            return Err(format!(
                "{}: {}",
                response
                    .get("error_kind")
                    .and_then(Json::as_str)
                    .unwrap_or("error"),
                response
                    .get("error")
                    .and_then(Json::as_str)
                    .unwrap_or("no error text")
            ));
        }
        if response.get("verified").and_then(Json::as_bool) != Some(true) {
            return Err("verify was on but the response is not verified".to_string());
        }
        let want_cache = if slot.cold { "miss" } else { "mem" };
        let cache = response.get("cache").and_then(Json::as_str);
        if cache != Some(want_cache) {
            return Err(format!(
                "served from cache {cache:?}, expected {want_cache:?}"
            ));
        }
        let got = Expected::from_response(response)
            .ok_or_else(|| "response lacks h/w/launches/smem_bytes/gstencils_per_s".to_string())?;
        let key = slot.class.key();
        let want = self
            .programs
            .get(&key)
            .ok_or_else(|| format!("no expected output for {key}; run --update-golden"))?;
        if !want.matches(&got) {
            return Err(format!("{key}: expected {want:?}, got {got:?}"));
        }
        Ok(got)
    }

    pub fn check_cell(&self, key: &str, gstencils: f64) -> Result<(), String> {
        let want = self
            .table
            .get(key)
            .ok_or_else(|| format!("no expected output for cell {key}; run --update-golden"))?;
        if close(*want, gstencils) {
            Ok(())
        } else {
            Err(format!(
                "cell {key}: expected {want} GStencils/s, got {gstencils}"
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::programs::Shape;
    use crate::workload::{Class, Device, Tune};

    fn slot(cold: bool) -> Slot {
        Slot {
            class: Class {
                shape: Shape::Jacobi2d,
                device: Device::Gtx470,
                tune: Tune::Static,
            },
            cold,
            deadline_ms: None,
        }
    }

    fn golden() -> Golden {
        let mut g = Golden::default();
        g.programs.insert(
            slot(true).class.key(),
            Expected {
                h: 3,
                w: vec![3, 32],
                launches: 10,
                smem_bytes: 4096,
                gstencils: 1.25,
            },
        );
        g.table.insert("PPCG|heat2d".to_string(), 0.1 + 0.2);
        g
    }

    fn response(cache: &str, gstencils: f64) -> Json {
        Json::obj(vec![
            ("status", Json::str("ok")),
            ("cache", Json::str(cache)),
            ("verified", Json::Bool(true)),
            ("h", Json::Int(3)),
            ("w", Json::Arr(vec![Json::Int(3), Json::Int(32)])),
            ("launches", Json::UInt(10)),
            ("smem_bytes", Json::UInt(4096)),
            ("gstencils_per_s", Json::Num(gstencils)),
        ])
    }

    #[test]
    fn file_round_trips() {
        let g = golden();
        assert_eq!(Golden::parse(&g.render()), Some(g));
    }

    #[test]
    fn checks_cache_source_verdict_and_statistics() {
        let g = golden();
        assert!(g
            .check_response(&slot(true), &response("miss", 1.25))
            .is_ok());
        assert!(g
            .check_response(&slot(false), &response("mem", 1.25))
            .is_ok());
        assert!(g
            .check_response(&slot(false), &response("disk", 1.25))
            .is_err());
        assert!(g
            .check_response(&slot(true), &response("mem", 1.25))
            .is_err());
        assert!(g
            .check_response(&slot(true), &response("miss", 1.26))
            .is_err());
        let error = Json::obj(vec![
            ("status", Json::str("error")),
            ("error_kind", Json::str("deadline_exceeded")),
        ]);
        assert!(g
            .check_response(&slot(true), &error)
            .unwrap_err()
            .starts_with("deadline_exceeded"));
        assert!(g.check_cell("PPCG|heat2d", 0.30000000000000004).is_ok());
        assert!(g.check_cell("PPCG|heat2d", 0.31).is_err());
        assert!(g.check_cell("PPCG|none", 0.3).is_err());
    }
}
