//! `gnna-campaign` — parallel fault-injection campaign runner.
//!
//! Sweeps a `rate × seed × benchmark × mode` grid and streams one
//! JSON-lines record per cell to `--out`. Output bytes are identical
//! for any `--threads` value, and an interrupted campaign resumes from
//! the partial file without recomputing finished cells:
//!
//! ```console
//! $ gnna-campaign --smoke --rates 0,0.001,0.01 --seeds 1,2 --threads 4
//! $ gnna-report --campaign campaign.jsonl
//! ```

use gnna_bench::campaign::{self, CampaignSpec, Mode, RateUnit};
use gnna_bench::cli::{self, Cli, Stop};
use gnna_bench::Scale;
use gnna_core::config::AcceleratorConfig;
use std::io::Write as _;
use std::process::ExitCode;

struct Args {
    spec: CampaignSpec,
    threads: usize,
    out: String,
    fresh: bool,
}

const USAGE: &str = "\
usage: gnna-campaign [options]
  --benchmarks M:I[,M:I...]      model:input pairs, e.g. gcn:cora,mpnn:qm9
                                 (default gcn:cora)
  --rates R[,R...]               fault rates to sweep
                                 (default 0,0.0001,0.001,0.01)
  --rate-unit event|fit          unit of --rates: per-event probability
                                 (default) or physical FIT / upsets per
                                 Gbit-hour, converted per-event at the
                                 2.4 GHz master clock
  --acceleration F               multiply physically calibrated rates by
                                 F to observe faults in bounded sim time
                                 (default 1; --rate-unit fit only)
  --seeds S[,S...]               fault-plan seeds (default 1,2)
  --modes M[,M...]               protected|passthrough|degraded|rollback
                                 (default the first three; rollback is
                                 opt-in)
  --domains E:C[,E:C...]         selective protection domains to sweep
                                 as ECC:CRC pairs, ECC in
                                 both|weights|acts and CRC in
                                 all|data|ctrl (default both:all)
  --config cpu-iso-bw|gpu-iso-bw|gpu-iso-flops
                                 Table VI configuration (default gpu-iso-bw)
  --smoke                        scaled-down datasets for a fast sweep
  --double-bit-fraction F        fraction of DRAM faults that are
                                 double-bit (default 0.25)
  --threads N                    worker threads (default 1; output bytes
                                 are identical for every N)
  --out PATH                     JSONL output (default campaign.jsonl);
                                 an existing partial file is resumed
  --fresh                        recompute everything, ignoring any
                                 existing output file
  --version                      print the workspace version
  --help                         this message";

fn parse_args(cli: &mut Cli) -> Result<Args, Stop> {
    let mut a = Args {
        spec: CampaignSpec::new(AcceleratorConfig::gpu_iso_bandwidth(), Scale::Paper),
        threads: 1,
        out: "campaign.jsonl".to_string(),
        fresh: false,
    };
    while let Some(flag) = cli.next_flag()? {
        match flag.as_str() {
            "--benchmarks" => {
                a.spec.benchmarks = cli.list(&flag, |item| match item.split_once(':') {
                    Some((m, i)) => Ok((cli::model(m)?, cli::input(i)?)),
                    None => {
                        let m = cli::model(item)?;
                        Ok((m, m.default_input()))
                    }
                })?
            }
            "--rates" => {
                a.spec.rates = cli.list(&flag, |r| {
                    let r: f64 = cli::number(&flag, r)?;
                    if r < 0.0 {
                        return Err(format!("rate {r} must be non-negative").into());
                    }
                    Ok(r)
                })?
            }
            "--rate-unit" => {
                a.spec.rate_unit = cli.choice(&flag, "rate unit", "event|fit", RateUnit::parse)?
            }
            "--acceleration" => a.spec.acceleration = cli.positive(&flag)?,
            "--domains" => {
                a.spec.domains = cli.list(&flag, |item| {
                    let (e, c) = item.split_once(':').unwrap_or((item, "all"));
                    Ok((cli::ecc_domain(e)?, cli::crc_domain(c)?))
                })?
            }
            "--seeds" => a.spec.seeds = cli.list(&flag, |s| cli::number(&flag, s))?,
            "--modes" => {
                a.spec.modes = cli.list(&flag, |m| {
                    cli::lookup(
                        "mode",
                        "protected|passthrough|degraded|rollback",
                        m,
                        Mode::parse,
                    )
                })?
            }
            "--config" => a.spec.config = cli::config(&cli.value(&flag)?)?,
            "--smoke" => a.spec.scale = Scale::Smoke,
            "--double-bit-fraction" => a.spec.double_bit_fraction = cli.fraction(&flag)?,
            "--threads" => a.threads = cli.parse::<usize>(&flag)?.max(1),
            "--out" => a.out = cli.value(&flag)?,
            "--fresh" => a.fresh = true,
            _ => return Err(cli::unknown(&flag)),
        }
    }
    // Per-event probabilities live in [0, 1]; physical FIT / upset
    // rates are unbounded, so the check waits until the unit is known.
    if a.spec.rate_unit == RateUnit::PerEvent {
        if let Some(r) = a.spec.rates.iter().find(|r| !(0.0..=1.0).contains(*r)) {
            return Err(format!(
                "rate {r} outside [0, 1] (use --rate-unit fit for physical rates)"
            )
            .into());
        }
    }
    Ok(a)
}

fn run(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let cells = args.spec.cells();
    // Resume: keep the complete-line prefix of an existing output file
    // and recompute only the missing tail.
    let mut start_cell = 0usize;
    if !args.fresh {
        if let Ok(existing) = std::fs::read_to_string(&args.out) {
            let (lines, prefix) = campaign::resume_point(&existing);
            campaign::validate_prefix(&existing[..prefix], &cells)?;
            if prefix != existing.len() {
                eprintln!(
                    "gnna-campaign: dropping a partial trailing line in {}",
                    args.out
                );
            }
            std::fs::write(&args.out, &existing[..prefix])?;
            start_cell = lines;
        }
    } else {
        let _ = std::fs::remove_file(&args.out);
    }
    if start_cell >= cells.len() {
        eprintln!(
            "gnna-campaign: {} already holds all {} cells",
            args.out,
            cells.len()
        );
        return Ok(());
    }
    if start_cell > 0 {
        eprintln!(
            "gnna-campaign: resuming {} at cell {start_cell}/{}",
            args.out,
            cells.len()
        );
    }
    let file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&args.out)?;
    let mut writer = std::io::BufWriter::new(file);
    let mut written = 0usize;
    let ran = campaign::run(&args.spec, args.threads, start_cell, |line| {
        writer.write_all(line.as_bytes())?;
        writer.write_all(b"\n")?;
        // Flush per record so an interrupted campaign leaves a clean,
        // resumable prefix on disk.
        writer.flush()?;
        written += 1;
        Ok(())
    })?;
    eprintln!(
        "gnna-campaign: wrote {written} of {ran} pending cells ({} total) to {}",
        cells.len(),
        args.out
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match cli::parse_env("gnna-campaign", USAGE, parse_args) {
        Ok(a) => a,
        Err(code) => return code,
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
