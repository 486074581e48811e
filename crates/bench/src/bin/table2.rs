//! Regenerates **Table II** of the paper: PSNR of quality-50 JPEG
//! compression through each multiplier, on the three benchmark scenes
//! (deterministic synthetic substitutes — see DESIGN.md §2).
//!
//! ```text
//! cargo run --release -p realm-bench --bin table2 -- --out results
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used)]

use realm_baselines::catalog::table2_designs;
use realm_bench::Driver;
use realm_core::multiplier::MultiplierExt;
use realm_core::{Accurate, Multiplier};
use realm_jpeg::{psnr, Image, JpegCodec};
use realm_metrics::{Engine, Workload};
use realm_par::{Chunk, ChunkPlan};

/// The PSNR grid of Table II: one JPEG round-trip per chunk, over the
/// cross product of scenes × (accurate + approximate designs). Each
/// round-trip is deterministic, so the grid folds bit-identically for
/// every worker count.
struct PsnrWorkload<'a> {
    designs: &'a [Box<dyn Multiplier>],
    images: &'a [(&'static str, Image)],
}

impl PsnrWorkload<'_> {
    /// Columns per image row: the accurate reference plus each design.
    fn cols(&self) -> u64 {
        1 + self.designs.len() as u64
    }
}

impl Workload for PsnrWorkload<'_> {
    type Part = Vec<f64>;
    type Output = Vec<f64>;

    fn family(&self) -> &'static str {
        "table2-psnr"
    }

    fn subject(&self) -> String {
        format!(
            "jpeg-q50 {} scenes x {} designs",
            self.images.len(),
            self.cols()
        )
    }

    fn plan(&self) -> ChunkPlan {
        ChunkPlan::new(self.images.len() as u64 * self.cols(), 1)
    }

    fn seed(&self) -> u64 {
        0 // the codec and scenes are deterministic
    }

    fn run_chunk(&self, chunk: Chunk) -> Vec<f64> {
        (chunk.start..chunk.start + chunk.len)
            .map(|idx| {
                let (_, img) = &self.images[(idx / self.cols()) as usize];
                let col = idx % self.cols();
                let roundtrip = if col == 0 {
                    JpegCodec::quality50(Accurate::new(16)).roundtrip(img)
                } else {
                    let design = self.designs[(col - 1) as usize].as_ref();
                    JpegCodec::quality50(design).roundtrip(img)
                };
                psnr(img, &roundtrip)
            })
            .collect()
    }

    fn finalize(&self, parts: Vec<(u64, Vec<f64>)>) -> Option<Vec<f64>> {
        let grid: Vec<f64> = parts.into_iter().flat_map(|(_, p)| p).collect();
        (grid.len() as u64 == self.images.len() as u64 * self.cols()).then_some(grid)
    }
}

fn main() {
    let driver = Driver::from_env();
    let designs = table2_designs();
    let images = Image::table2_set();

    println!("Table II reproduction — JPEG quality 50, 16-bit fixed-point, PSNR in dB");
    println!("(images are synthetic substitutes with matching scene statistics)\n");
    let mut headers: Vec<String> = vec!["image".into(), "Accurate".into()];
    headers.extend(designs.iter().map(|d| d.label()));
    println!(
        "{}",
        headers
            .iter()
            .map(|h| format!("{h:>18}"))
            .collect::<String>()
    );

    let workload = PsnrWorkload {
        designs: &designs,
        images: &images,
    };
    let sup = driver.run("PSNR campaign", || {
        Engine::supervised(&workload, driver.supervisor())
    });
    let grid = driver.require_complete("PSNR campaign", sup);

    let cols = workload.cols() as usize;
    let mut csv = format!("image,{}\n", headers[1..].join(","));
    for (row, (name, _)) in images.iter().enumerate() {
        let mut cells: Vec<String> = vec![format!("{name:>18}")];
        let mut csv_row: Vec<String> = vec![name.to_string()];
        for p in &grid[row * cols..(row + 1) * cols] {
            cells.push(format!("{p:>18.1}"));
            csv_row.push(format!("{p:.2}"));
        }
        println!("{}", cells.concat());
        csv.push_str(&csv_row.join(","));
        csv.push('\n');
    }
    driver.opts.write_csv("table2.csv", &csv);

    println!("\npaper shape: REALM within ~1 dB of accurate; cALM/IntALP/ALM-SOA drop 5-10 dB");
    driver.finish();
}
