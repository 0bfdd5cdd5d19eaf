//! A minimal VCD (Value Change Dump) writer for waveform inspection.
//!
//! PyMTL's `SimulationTool` can emit VCD traces for debugging; this module
//! provides the same capability. One representative signal per net is
//! dumped, organized by module hierarchy.

use std::io::{self, Write};

use mtl_bits::Bits;

use crate::sim::Sim;

/// Streams signal changes from a [`Sim`] into VCD format.
///
/// # Examples
///
/// ```no_run
/// # use mtl_sim::{Sim, VcdWriter};
/// # fn demo(mut sim: Sim) -> std::io::Result<()> {
/// let file = std::fs::File::create("trace.vcd")?;
/// let mut vcd = VcdWriter::new(file, &sim)?;
/// for _ in 0..100 {
///     sim.cycle();
///     vcd.sample(&sim)?;
/// }
/// # Ok(())
/// # }
/// ```
pub struct VcdWriter<W: Write> {
    out: W,
    /// (net slot, id code, width) for each dumped net.
    nets: Vec<(u32, String, u32)>,
    last: Vec<Option<Bits>>,
    time: u64,
    /// Whether the initial `$dumpvars` block has been emitted.
    dumped: bool,
}

fn id_code(mut n: usize) -> String {
    // VCD identifier codes use printable ASCII 33..=126.
    let mut s = String::new();
    loop {
        s.push((33 + (n % 94)) as u8 as char);
        n /= 94;
        if n == 0 {
            break;
        }
    }
    s
}

impl<W: Write> VcdWriter<W> {
    /// Writes the VCD header for `sim`'s design and returns the writer.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the underlying writer.
    pub fn new(mut out: W, sim: &Sim) -> io::Result<Self> {
        let design = sim.design();
        writeln!(out, "$date generated by rustmtl $end")?;
        writeln!(out, "$version rustmtl 0.1 $end")?;
        writeln!(out, "$timescale 1ns $end")?;

        let mut nets: Vec<(u32, String, u32)> = Vec::new();
        // Emit scopes per module, declaring one var per signal; signals in
        // the same net share an id code so the waveform stays consistent.
        let mut net_code: Vec<Option<String>> = vec![None; design.nets().len()];
        for (mi, module) in design.modules().iter().enumerate() {
            writeln!(out, "$scope module {} $end", sanitize(&module.name))?;
            for (si, sig) in design.signals().iter().enumerate() {
                if sig.module.index() != mi {
                    continue;
                }
                let net = design.net_of(mtl_core::SignalId::from_index(si));
                let code = match &net_code[net.index()] {
                    Some(c) => c.clone(),
                    None => {
                        let c = id_code(nets.len());
                        net_code[net.index()] = Some(c.clone());
                        nets.push((net.index() as u32, c.clone(), sig.width));
                        c
                    }
                };
                writeln!(out, "$var wire {} {} {} $end", sig.width, code, sanitize(&sig.name))?;
            }
            writeln!(out, "$upscope $end")?;
        }
        writeln!(out, "$enddefinitions $end")?;
        let last = vec![None; nets.len()];
        Ok(Self { out, nets, last, time: 0, dumped: false })
    }

    /// Samples the current simulation state.
    ///
    /// The first sample dumps the full state inside a `$dumpvars … $end`
    /// block at `#0` (as the VCD grammar requires); later samples emit a
    /// `#time` stamp and the changed values only, and quiet samples — no
    /// value changed — emit nothing at all.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the underlying writer.
    pub fn sample(&mut self, sim: &Sim) -> io::Result<()> {
        if !self.dumped {
            self.dumped = true;
            writeln!(self.out, "#{}", self.time)?;
            writeln!(self.out, "$dumpvars")?;
            for (i, (slot, code, width)) in self.nets.iter().enumerate() {
                let v = sim.peek(representative(sim, *slot));
                self.last[i] = Some(v);
                write_value(&mut self.out, v, code, *width)?;
            }
            writeln!(self.out, "$end")?;
            self.time += 1;
            return Ok(());
        }
        let mut changes: Vec<(usize, Bits)> = Vec::new();
        for (i, (slot, _, _)) in self.nets.iter().enumerate() {
            let v = sim.peek(representative(sim, *slot));
            if self.last[i] != Some(v) {
                changes.push((i, v));
            }
        }
        if !changes.is_empty() {
            writeln!(self.out, "#{}", self.time)?;
            for (i, v) in changes {
                self.last[i] = Some(v);
                let (_, code, width) = &self.nets[i];
                write_value(&mut self.out, v, code, *width)?;
            }
        }
        self.time += 1;
        Ok(())
    }
}

fn write_value<W: Write>(out: &mut W, v: Bits, code: &str, width: u32) -> io::Result<()> {
    if width == 1 {
        writeln!(out, "{}{}", v.as_u64(), code)
    } else {
        writeln!(out, "b{:b} {}", v, code)
    }
}

fn representative(sim: &Sim, slot: u32) -> mtl_core::SignalId {
    sim.design().net(mtl_core::NetId::from_index(slot as usize)).signals[0]
}

fn sanitize(name: &str) -> String {
    let mut s = name.replace(['.', ' '], "_");
    // VCD identifiers may not begin with a digit.
    if s.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        s.insert(0, '_');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{Engine, Sim};
    use mtl_bits::b;
    use mtl_core::{Component, Ctx};

    #[test]
    fn id_codes_are_unique_and_printable() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000 {
            let c = id_code(i);
            assert!(c.chars().all(|ch| (33..=126).contains(&(ch as u32))));
            assert!(seen.insert(c));
        }
    }

    /// A strict structural check of VCD output: declaration section shape,
    /// identifier rules, `$dumpvars` initial block, monotonic non-empty
    /// timestamp sections referencing only declared id codes.
    fn check_vcd_grammar(text: &str) {
        let mut lines = text.lines().peekable();
        // --- declaration section ---
        let mut ids = std::collections::HashSet::new();
        let mut scope_depth = 0usize;
        loop {
            let line = lines.next().expect("declarations end with $enddefinitions");
            if line == "$enddefinitions $end" {
                break;
            }
            if let Some(rest) = line.strip_prefix("$scope module ") {
                let name = rest.strip_suffix(" $end").expect("scope line ends with $end");
                assert!(
                    !name.is_empty() && !name.starts_with(|c: char| c.is_ascii_digit()),
                    "scope name `{name}` must not start with a digit"
                );
                scope_depth += 1;
            } else if line == "$upscope $end" {
                scope_depth = scope_depth.checked_sub(1).expect("unbalanced $upscope");
            } else if let Some(rest) = line.strip_prefix("$var wire ") {
                let rest = rest.strip_suffix(" $end").expect("var line ends with $end");
                let mut parts = rest.split(' ');
                let width: u32 = parts.next().unwrap().parse().expect("var width");
                assert!(width >= 1);
                let code = parts.next().expect("var id code");
                assert!(code.chars().all(|ch| (33..=126).contains(&(ch as u32))));
                ids.insert(code.to_string());
                let name = parts.next().expect("var name");
                assert!(
                    !name.starts_with(|c: char| c.is_ascii_digit()),
                    "var name `{name}` must not start with a digit"
                );
                assert!(parts.next().is_none(), "trailing tokens in var line");
            } else {
                assert!(
                    line.starts_with('$') && line.ends_with("$end"),
                    "unexpected declaration line: {line}"
                );
            }
        }
        assert_eq!(scope_depth, 0, "unbalanced scopes");
        assert!(!ids.is_empty(), "at least one var declared");
        // --- value-change section ---
        let body: Vec<&str> = lines.collect();
        assert!(body[0] == "#0", "first sample at time 0, got {}", body[0]);
        assert!(body[1] == "$dumpvars", "initial values inside $dumpvars, got {}", body[1]);
        let mut last_time: Option<u64> = None;
        let mut section_changes = 0usize;
        let mut in_dumpvars = false;
        for line in body {
            if let Some(t) = line.strip_prefix('#') {
                let t: u64 = t.parse().expect("timestamp");
                if let Some(prev) = last_time {
                    assert!(t > prev, "timestamps must increase: #{prev} then #{t}");
                    assert!(section_changes > 0, "timestamp #{prev} had no value changes");
                }
                last_time = Some(t);
                section_changes = 0;
            } else if line == "$dumpvars" {
                in_dumpvars = true;
            } else if line == "$end" {
                assert!(in_dumpvars, "stray $end");
                in_dumpvars = false;
            } else {
                let code = if let Some(rest) = line.strip_prefix('b') {
                    let (bits, code) = rest.split_once(' ').expect("vector change has a space");
                    assert!(bits.chars().all(|c| c == '0' || c == '1'), "binary digits: {line}");
                    code
                } else {
                    assert!(
                        line.starts_with('0') || line.starts_with('1'),
                        "scalar change starts with 0/1: {line}"
                    );
                    &line[1..]
                };
                assert!(ids.contains(code), "undeclared id code `{code}` in: {line}");
                section_changes += 1;
            }
        }
        assert!(section_changes > 0, "final timestamp had no value changes");
        assert!(!in_dumpvars, "unterminated $dumpvars");
    }

    /// A counter whose wire name starts with a digit (legal in RustMTL,
    /// illegal as a raw VCD identifier) and which goes quiet when `en`
    /// drops, exercising both sanitization and timestamp skipping.
    struct DigitCounter;
    impl Component for DigitCounter {
        fn name(&self) -> String {
            "DigitCounter".into()
        }
        fn build(&self, c: &mut Ctx) {
            let en = c.in_port("en", 1);
            let out = c.out_port("out", 8);
            let nxt = c.wire("9next", 8);
            c.comb("calc", |b| b.assign(nxt, out + en.ex().zext(8)));
            c.seq("step", |b| b.assign(out, nxt));
        }
    }

    #[test]
    fn vcd_output_passes_grammar_check_and_skips_quiet_samples() {
        let mut sim = Sim::build(&DigitCounter, Engine::SpecializedOpt).unwrap();
        sim.reset();
        sim.poke_port("en", b(1, 1));
        let mut buf = Vec::new();
        let mut vcd = VcdWriter::new(&mut buf, &sim).unwrap();
        for _ in 0..3 {
            sim.cycle();
            vcd.sample(&sim).unwrap();
        }
        sim.poke_port("en", b(1, 0));
        sim.eval();
        for _ in 0..4 {
            sim.cycle();
            vcd.sample(&sim).unwrap();
        }
        let text = String::from_utf8(buf).unwrap();
        check_vcd_grammar(&text);
        assert!(text.contains("_9next"), "digit-prefixed name sanitized:\n{text}");
        let stamps = text.lines().filter(|l| l.starts_with('#')).count();
        // 7 samples, but after `en` drops the counter freezes: the first
        // quiet sample records the dropped enable, the last 3 emit nothing.
        assert_eq!(stamps, 4, "quiet samples must not stamp time:\n{text}");
    }
}
