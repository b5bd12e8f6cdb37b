//! Command-line arguments: `--workload <name> --seed <n> --seconds <s>
//! --trace <0|1>`.

use crate::workload::Workload;

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

pub fn parse(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(&value).ok_or_else(|| {
                    format!(
                        "unknown workload {value:?}; expected one of {:?}",
                        Workload::ALL.map(|w| w.name())
                    )
                })?)
            }
            "--seed" => seed = Some(parse_num(&flag, &value)?),
            "--seconds" => {
                let s = parse_num(&flag, &value)?;
                if !(1..=3600).contains(&s) {
                    return Err(format!("--seconds must be in 1..=3600, got {s}"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn parse_num(flag: &str, value: &str) -> Result<u64, String> {
    value
        .parse()
        .map_err(|_| format!("{flag} takes a non-negative integer, got {value:?}"))
}
