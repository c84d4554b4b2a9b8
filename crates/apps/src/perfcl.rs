//! PerfCL ports of the evaluation applications.
//!
//! The paper's apps are implemented twice in this workspace: as hand-written
//! Rust [`kp_core::StencilApp`]s (the other modules of this crate) and —
//! here — as PerfCL kernel sources for the `kp-ir` language toolchain.
//! The PerfCL ports are what the bytecode-VM differential suite and the
//! repository benchmark's `perfcl` workload run: realistic full-size
//! kernels, in the canonical stencil form the automatic perforation pass
//! recognizes.
//!
//! Calling convention (so harnesses can bind arguments generically): every
//! kernel takes `global const float* in`, `global float* out`, `int width`,
//! `int height`; apps with an auxiliary input add `global const float* aux`
//! and extra scalar `float` parameters are listed in
//! [`PerfclApp::extra_args`] with their canonical values.

/// One PerfCL port of an evaluation application.
#[derive(Debug, Clone, Copy)]
pub struct PerfclApp {
    /// Canonical app name (matches [`crate::suite::by_name`] keys).
    pub name: &'static str,
    /// The kernel source.
    pub source: &'static str,
    /// Stencil radius of the kernel.
    pub halo: usize,
    /// Whether the kernel takes the auxiliary `aux` buffer (Hotspot's
    /// power grid).
    pub needs_aux: bool,
    /// Extra scalar float arguments beyond the standard ones, with their
    /// canonical values.
    pub extra_args: &'static [(&'static str, f32)],
}

/// Gaussian 3×3 binomial low-pass (weights 1/16·[1 2 1; 2 4 2; 1 2 1],
/// clamp-to-edge) — the PerfCL twin of [`crate::Gaussian3`].
pub const GAUSSIAN_SRC: &str = "\
kernel gaussian(global const float* in, global float* out, int width, int height) {
    int x = get_global_id(0);
    int y = get_global_id(1);
    if (x >= width || y >= height) { return; }
    float acc = 0.0;
    acc = acc + 0.0625 * in[clamp(y - 1, 0, height - 1) * width + clamp(x - 1, 0, width - 1)];
    acc = acc + 0.125 * in[clamp(y - 1, 0, height - 1) * width + clamp(x, 0, width - 1)];
    acc = acc + 0.0625 * in[clamp(y - 1, 0, height - 1) * width + clamp(x + 1, 0, width - 1)];
    acc = acc + 0.125 * in[clamp(y, 0, height - 1) * width + clamp(x - 1, 0, width - 1)];
    acc = acc + 0.25 * in[y * width + x];
    acc = acc + 0.125 * in[clamp(y, 0, height - 1) * width + clamp(x + 1, 0, width - 1)];
    acc = acc + 0.0625 * in[clamp(y + 1, 0, height - 1) * width + clamp(x - 1, 0, width - 1)];
    acc = acc + 0.125 * in[clamp(y + 1, 0, height - 1) * width + clamp(x, 0, width - 1)];
    acc = acc + 0.0625 * in[clamp(y + 1, 0, height - 1) * width + clamp(x + 1, 0, width - 1)];
    out[y * width + x] = acc;
}";

/// Median 3×3 via the median-of-medians comparator identity
/// `med3(a,b,c) = max(min(a,b), min(max(a,b), c))` — the PerfCL twin of
/// [`crate::Median3`] (column medians, then the median of those).
pub const MEDIAN_SRC: &str = "\
kernel median(global const float* in, global float* out, int width, int height) {
    int x = get_global_id(0);
    int y = get_global_id(1);
    if (x >= width || y >= height) { return; }
    float w0 = in[clamp(y - 1, 0, height - 1) * width + clamp(x - 1, 0, width - 1)];
    float w1 = in[clamp(y - 1, 0, height - 1) * width + clamp(x, 0, width - 1)];
    float w2 = in[clamp(y - 1, 0, height - 1) * width + clamp(x + 1, 0, width - 1)];
    float w3 = in[clamp(y, 0, height - 1) * width + clamp(x - 1, 0, width - 1)];
    float w4 = in[y * width + x];
    float w5 = in[clamp(y, 0, height - 1) * width + clamp(x + 1, 0, width - 1)];
    float w6 = in[clamp(y + 1, 0, height - 1) * width + clamp(x - 1, 0, width - 1)];
    float w7 = in[clamp(y + 1, 0, height - 1) * width + clamp(x, 0, width - 1)];
    float w8 = in[clamp(y + 1, 0, height - 1) * width + clamp(x + 1, 0, width - 1)];
    float m0 = max(min(w0, w3), min(max(w0, w3), w6));
    float m1 = max(min(w1, w4), min(max(w1, w4), w7));
    float m2 = max(min(w2, w5), min(max(w2, w5), w8));
    out[y * width + x] = max(min(m0, m1), min(max(m0, m1), m2));
}";

/// Sobel 3×3 gradient magnitude normalized into `[0, 1]`
/// (`sqrt(gx² + gy²) / (4·√2)`) — the PerfCL twin of [`crate::Sobel3`].
pub const SOBEL3_SRC: &str = "\
kernel sobel3(global const float* in, global float* out, int width, int height) {
    int x = get_global_id(0);
    int y = get_global_id(1);
    if (x >= width || y >= height) { return; }
    float v00 = in[clamp(y - 1, 0, height - 1) * width + clamp(x - 1, 0, width - 1)];
    float v01 = in[clamp(y - 1, 0, height - 1) * width + clamp(x, 0, width - 1)];
    float v02 = in[clamp(y - 1, 0, height - 1) * width + clamp(x + 1, 0, width - 1)];
    float v10 = in[clamp(y, 0, height - 1) * width + clamp(x - 1, 0, width - 1)];
    float v12 = in[clamp(y, 0, height - 1) * width + clamp(x + 1, 0, width - 1)];
    float v20 = in[clamp(y + 1, 0, height - 1) * width + clamp(x - 1, 0, width - 1)];
    float v21 = in[clamp(y + 1, 0, height - 1) * width + clamp(x, 0, width - 1)];
    float v22 = in[clamp(y + 1, 0, height - 1) * width + clamp(x + 1, 0, width - 1)];
    float gx = (v02 - v00) + 2.0 * (v12 - v10) + (v22 - v20);
    float gy = (v20 - v00) + 2.0 * (v21 - v01) + (v22 - v02);
    out[y * width + x] = sqrt(gx * gx + gy * gy) / 5.6568542;
}";

/// Image inversion (`out = 1 - in`, 1×1 kernel, no halo) — the PerfCL twin
/// of [`crate::Inversion`].
pub const INVERSION_SRC: &str = "\
kernel inversion(global const float* in, global float* out, int width, int height) {
    int x = get_global_id(0);
    int y = get_global_id(1);
    if (x >= width || y >= height) { return; }
    out[y * width + x] = 1.0 - in[y * width + x];
}";

/// One explicit Euler step of the Hotspot thermal simulation (5-point
/// temperature stencil + pointwise power read) — the PerfCL twin of
/// [`crate::Hotspot`]. The physics coefficients default to the
/// Rodinia-flavored values of [`crate::HotspotParams::rodinia`].
pub const HOTSPOT_SRC: &str = "\
kernel hotspot(global const float* in, global const float* aux, global float* out,
               int width, int height,
               float sdc, float rxi, float ryi, float rzi, float amb) {
    int x = get_global_id(0);
    int y = get_global_id(1);
    if (x >= width || y >= height) { return; }
    float t = in[y * width + x];
    float tn = in[clamp(y - 1, 0, height - 1) * width + clamp(x, 0, width - 1)];
    float ts = in[clamp(y + 1, 0, height - 1) * width + clamp(x, 0, width - 1)];
    float te = in[clamp(y, 0, height - 1) * width + clamp(x + 1, 0, width - 1)];
    float tw = in[clamp(y, 0, height - 1) * width + clamp(x - 1, 0, width - 1)];
    float p = aux[y * width + x];
    float delta = sdc * (p + (te + tw - 2.0 * t) * rxi
                           + (tn + ts - 2.0 * t) * ryi
                           + (amb - t) * rzi);
    out[y * width + x] = t + delta;
}";

/// The five PerfCL evaluation kernels, in suite order.
pub fn evaluation_kernels() -> [PerfclApp; 5] {
    [
        PerfclApp {
            name: "gaussian",
            source: GAUSSIAN_SRC,
            halo: 1,
            needs_aux: false,
            extra_args: &[],
        },
        PerfclApp {
            name: "median",
            source: MEDIAN_SRC,
            halo: 1,
            needs_aux: false,
            extra_args: &[],
        },
        PerfclApp {
            name: "hotspot",
            source: HOTSPOT_SRC,
            halo: 1,
            needs_aux: true,
            extra_args: &[
                ("sdc", 0.5),
                ("rxi", 0.2),
                ("ryi", 0.2),
                ("rzi", 0.1),
                ("amb", 323.15),
            ],
        },
        PerfclApp {
            name: "inversion",
            source: INVERSION_SRC,
            halo: 0,
            needs_aux: false,
            extra_args: &[],
        },
        PerfclApp {
            name: "sobel3",
            source: SOBEL3_SRC,
            halo: 1,
            needs_aux: false,
            extra_args: &[],
        },
    ]
}

/// Looks up a PerfCL kernel by app name.
pub fn by_name(name: &str) -> Option<PerfclApp> {
    evaluation_kernels().into_iter().find(|k| k.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kp_ir::transform::{perforate_kernel, IrRecon, IrScheme, PassConfig};
    use kp_ir::{ArgValue, IrKernel};

    #[test]
    fn all_sources_parse_and_typecheck() {
        for app in evaluation_kernels() {
            let (def, _) = kp_ir::typeck::check_source(app.source)
                .unwrap_or_else(|e| panic!("{}: {e}", app.name));
            assert_eq!(def.name, app.name);
            assert!(def.param("in").is_some(), "{}", app.name);
            assert!(def.param("out").is_some(), "{}", app.name);
            assert_eq!(def.param("aux").is_some(), app.needs_aux, "{}", app.name);
            for (extra, _) in app.extra_args {
                assert!(def.param(extra).is_some(), "{}: {extra}", app.name);
            }
        }
    }

    #[test]
    fn stencil_analysis_recovers_the_declared_halo() {
        for app in evaluation_kernels() {
            let prog = kp_ir::parser::parse(app.source).unwrap();
            let info = kp_ir::analysis::analyze(&prog.kernels[0])
                .unwrap_or_else(|e| panic!("{}: {e}", app.name));
            assert_eq!(info.halo(), app.halo, "{}", app.name);
            assert_eq!(info.input, "in", "{}", app.name);
            assert_eq!(info.output, "out", "{}", app.name);
        }
    }

    #[test]
    fn stencil_apps_survive_the_perforation_pass() {
        // Rows1:NN applies to every app; the transformed kernel must
        // re-typecheck (it is ordinary PerfCL).
        for app in evaluation_kernels() {
            let prog = kp_ir::parser::parse(app.source).unwrap();
            let pass = PassConfig {
                scheme: IrScheme::RowsHalf,
                reconstruction: IrRecon::NearestNeighbor,
                tile_w: 8,
                tile_h: 8,
            };
            let perforated = perforate_kernel(&prog.kernels[0], &pass)
                .unwrap_or_else(|e| panic!("{}: {e}", app.name));
            kp_ir::typeck::check(&perforated).unwrap_or_else(|e| panic!("{}: {e}", app.name));
        }
    }

    /// The optimizer removes work from every kernel the perfcl benchmark
    /// runs: each app accurate, {Rows½, Rows¼, Cols½} × {NN, LI}, and
    /// Stencil NN where the halo is > 0 — 39 kernels at 16×16 tiles. Each
    /// must shrink to at most 60% of its as-lowered instruction count.
    #[test]
    fn optimizer_removes_at_least_40_percent_of_every_benchmark_kernel() {
        const SIZE: usize = 32;
        let mut dev = kp_gpu_sim::Device::new(kp_gpu_sim::DeviceConfig::test_tiny()).unwrap();
        let input = dev.create_buffer::<f32>("in", SIZE * SIZE).unwrap();
        let aux = dev.create_buffer::<f32>("aux", SIZE * SIZE).unwrap();
        let out = dev.create_buffer::<f32>("out", SIZE * SIZE).unwrap();
        let mut kernels = 0;
        for app in evaluation_kernels() {
            let mut args = vec![
                ("in", ArgValue::Buffer(input)),
                ("out", ArgValue::Buffer(out)),
                ("width", ArgValue::Int(SIZE as i64)),
                ("height", ArgValue::Int(SIZE as i64)),
            ];
            if app.needs_aux {
                args.push(("aux", ArgValue::Buffer(aux)));
            }
            args.extend(app.extra_args.iter().map(|&(n, v)| (n, ArgValue::Float(v))));
            let accurate = kp_ir::parser::parse(app.source).unwrap().kernels[0].clone();
            let mut passes = vec![None];
            for scheme in [
                IrScheme::RowsHalf,
                IrScheme::RowsQuarter,
                IrScheme::ColsHalf,
            ] {
                for reconstruction in [IrRecon::NearestNeighbor, IrRecon::LinearInterpolation] {
                    passes.push(Some((scheme, reconstruction)));
                }
            }
            if app.halo > 0 {
                passes.push(Some((IrScheme::Stencil, IrRecon::NearestNeighbor)));
            }
            for pass in passes {
                let def = match pass {
                    None => accurate.clone(),
                    Some((scheme, reconstruction)) => {
                        let config = PassConfig {
                            scheme,
                            reconstruction,
                            tile_w: 16,
                            tile_h: 16,
                        };
                        perforate_kernel(&accurate, &config).unwrap()
                    }
                };
                let stats = IrKernel::new(def, &args).unwrap().opt_stats();
                assert!(
                    stats.insts_after * 10 <= stats.insts_before * 6,
                    "{} {pass:?}: {} of {} instructions left after optimization",
                    app.name,
                    stats.insts_after,
                    stats.insts_before
                );
                kernels += 1;
            }
        }
        assert_eq!(kernels, 39, "the benchmark's kernel set changed");
    }

    #[test]
    fn lookup_by_name() {
        assert!(by_name("gaussian").is_some());
        assert!(by_name("hotspot").unwrap().needs_aux);
        assert!(by_name("sobel5").is_none());
    }
}
