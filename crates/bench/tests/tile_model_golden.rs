//! Golden: the tile-size models recorded in the checked-in
//! `BENCH_baseline.json` (`autotune[].ranked[]`, written by the `autotune`
//! bin when the model still enumerated tiles point by point) are
//! reproduced exactly by the counting model.

use hybrid_bench::json::Json;
use hybrid_tiling::tilesize::evaluate_tile;
use hybrid_tiling::TileParams;
use stencil::gallery;

#[test]
fn baseline_autotune_models_are_reproduced_exactly() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_baseline.json");
    let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let sweeps = doc.get("autotune").and_then(Json::as_arr).unwrap();
    let mut checked = 0;
    for sweep in sweeps {
        let name = sweep.get("stencil").and_then(Json::as_str).unwrap();
        let program = gallery::table3_stencils()
            .into_iter()
            .chain([gallery::jacobi2d()])
            .find(|p| p.name() == name)
            .unwrap_or_else(|| panic!("baseline stencil {name} is in the gallery"));
        for entry in sweep.get("ranked").and_then(Json::as_arr).unwrap() {
            let uint = |key: &str| entry.get(key).and_then(Json::as_i64).unwrap() as u64;
            let w: Vec<i64> = entry
                .get("w")
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|x| x.as_i64().unwrap())
                .collect();
            let params = TileParams::new(uint("h") as i64, &w);
            let model = evaluate_tile(&program, &params).unwrap();
            assert_eq!(
                (model.iterations, model.steady_loads, model.smem_bytes),
                (uint("iterations"), uint("steady_loads"), uint("smem_bytes")),
                "{name} {params:?}"
            );
            checked += 1;
        }
    }
    assert!(
        checked >= 4,
        "the baseline records at least one ranked sweep"
    );
}
