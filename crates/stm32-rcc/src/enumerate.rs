//! Design-space enumeration of valid clocking configurations.
//!
//! Step 2 of the paper's methodology sweeps `PLLN ∈ {75,100,150,168,216,
//! 336,432}` and `PLLM ∈ {25,50}` against a 50 MHz HSE with `PLLP = 2`.
//! This module enumerates every *valid* configuration in such a grid, groups
//! iso-frequency alternatives, and ranks them by VCO frequency — the proxy
//! the RCC layer can offer for power (the `stm32-power` crate turns the VCO
//! frequency into milliwatts).

use std::collections::BTreeMap;

use crate::hertz::Hertz;
use crate::pll::PllConfig;
use crate::sysclk::{ClockSource, SysclkConfig};

/// `PLLN` values explored by the paper (Sec. III-B).
pub const PAPER_PLLN_VALUES: [u32; 7] = [75, 100, 150, 168, 216, 336, 432];

/// `PLLM` values explored by the paper (Sec. III-B).
pub const PAPER_PLLM_VALUES: [u32; 2] = [25, 50];

/// All iso-frequency PLL alternatives for one SYSCLK value, sorted by VCO
/// frequency (coolest first).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IsoFrequencyGroup {
    /// The shared SYSCLK output frequency.
    pub sysclk: Hertz,
    /// The alternatives producing it, ascending VCO frequency.
    pub configs: Vec<PllConfig>,
}

impl IsoFrequencyGroup {
    /// The configuration with the lowest VCO frequency — the power-optimal
    /// choice at RCC level ("the combinations that minimize the power
    /// consumption are selected for the target SYSCLK", Sec. II-A).
    pub fn coolest(&self) -> &PllConfig {
        &self.configs[0]
    }

    /// The configuration with the highest VCO frequency.
    pub fn hottest(&self) -> &PllConfig {
        self.configs.last().expect("group is never empty")
    }
}

/// A rectangular grid of clocking parameters to enumerate.
///
/// # Examples
///
/// ```
/// use stm32_rcc::{ConfigSpace, Hertz};
///
/// let space = ConfigSpace::paper();
/// let groups = space.iso_frequency_groups();
/// // The paper's HFO ladder contains 216 MHz...
/// assert!(groups.iter().any(|g| g.sysclk == Hertz::mhz(216)));
/// // ...and every group is sorted coolest-VCO first.
/// for g in &groups {
///     for w in g.configs.windows(2) {
///         assert!(w[0].vco_output() <= w[1].vco_output());
///     }
/// }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigSpace {
    hse_frequencies: Vec<Hertz>,
    pllm_values: Vec<u32>,
    plln_values: Vec<u32>,
    pllp_values: Vec<u32>,
}

impl ConfigSpace {
    /// Creates an empty space; use the builder methods to populate it.
    pub fn new() -> Self {
        ConfigSpace {
            hse_frequencies: Vec::new(),
            pllm_values: Vec::new(),
            plln_values: Vec::new(),
            pllp_values: vec![2],
        }
    }

    /// The exact grid explored in the paper: HSE 50 MHz, `PLLM ∈ {25,50}`,
    /// `PLLN ∈ {75,...,432}`, `PLLP = 2`.
    pub fn paper() -> Self {
        ConfigSpace {
            hse_frequencies: vec![Hertz::mhz(50)],
            pllm_values: PAPER_PLLM_VALUES.to_vec(),
            plln_values: PAPER_PLLN_VALUES.to_vec(),
            pllp_values: vec![2],
        }
    }

    /// A wider grid for Fig. 2-style iso-frequency studies: several HSE
    /// crystals, a denser divider set, and all `PLLP` values.
    ///
    /// Varying `PLLP` is what creates *iso-frequency, different-VCO*
    /// alternatives: the same SYSCLK reached through a higher `PLLP` needs a
    /// proportionally higher VCO frequency and therefore burns more power —
    /// the core observation of Fig. 2.
    pub fn wide() -> Self {
        ConfigSpace {
            hse_frequencies: vec![Hertz::mhz(16), Hertz::mhz(25), Hertz::mhz(50)],
            pllm_values: vec![8, 12, 16, 25, 50],
            plln_values: vec![50, 75, 100, 150, 168, 200, 216, 336, 432],
            pllp_values: vec![2, 4, 6, 8],
        }
    }

    /// Adds an HSE frequency to the grid.
    pub fn hse(&mut self, freq: Hertz) -> &mut Self {
        self.hse_frequencies.push(freq);
        self
    }

    /// Adds a `PLLM` candidate.
    pub fn pllm(&mut self, m: u32) -> &mut Self {
        self.pllm_values.push(m);
        self
    }

    /// Adds a `PLLN` candidate.
    pub fn plln(&mut self, n: u32) -> &mut Self {
        self.plln_values.push(n);
        self
    }

    /// Replaces the `PLLP` candidates (defaults to just 2).
    pub fn pllp_set(&mut self, values: &[u32]) -> &mut Self {
        self.pllp_values = values.to_vec();
        self
    }

    /// Enumerates every *valid* PLL configuration in the grid.
    ///
    /// Invalid combinations (VCO window, SYSCLK ceiling, ...) are silently
    /// skipped — exactly what firmware exploring the space would do.
    pub fn enumerate_pll(&self) -> Vec<PllConfig> {
        let mut out = Vec::new();
        for &hse in &self.hse_frequencies {
            for &m in &self.pllm_values {
                for &n in &self.plln_values {
                    for &p in &self.pllp_values {
                        if let Ok(cfg) = PllConfig::new(ClockSource::hse(hse), m, n, p) {
                            out.push(cfg);
                        }
                    }
                }
            }
        }
        out
    }

    /// Enumerates all SYSCLK configurations: each valid PLL config plus the
    /// direct-HSE options.
    pub fn enumerate(&self) -> Vec<SysclkConfig> {
        let mut out: Vec<SysclkConfig> = self
            .enumerate_pll()
            .into_iter()
            .map(SysclkConfig::Pll)
            .collect();
        for &hse in &self.hse_frequencies {
            let direct = SysclkConfig::HseDirect(hse);
            if direct.validate().is_ok() {
                out.push(direct);
            }
        }
        out
    }

    /// Groups valid PLL configurations by the SYSCLK they produce, each
    /// group sorted coolest-VCO first.
    pub fn iso_frequency_groups(&self) -> Vec<IsoFrequencyGroup> {
        let mut by_freq: BTreeMap<Hertz, Vec<PllConfig>> = BTreeMap::new();
        for cfg in self.enumerate_pll() {
            by_freq.entry(cfg.sysclk()).or_default().push(cfg);
        }
        by_freq
            .into_iter()
            .map(|(sysclk, mut configs)| {
                configs.sort_by_key(|c| (c.vco_output(), c.label_tuple()));
                IsoFrequencyGroup { sysclk, configs }
            })
            .collect()
    }

    /// The power-optimal (minimum-VCO) configuration for a target SYSCLK,
    /// if the grid can produce it: the [`IsoFrequencyGroup::coolest`] of
    /// `target`'s group in [`ConfigSpace::iso_frequency_groups`].
    ///
    /// One streaming pass over the grid with no allocation: it keeps the
    /// first valid configuration that minimises
    /// `(vco_output(), label_tuple())`, which is exactly the head of the
    /// group's stable sort. Large grids (e.g. the full datasheet divider
    /// space) are therefore cheap to query per frequency.
    pub fn min_vco_config(&self, target: Hertz) -> Option<PllConfig> {
        let key = |c: &PllConfig| (c.vco_output(), c.label_tuple());
        let mut best: Option<PllConfig> = None;
        for &hse in &self.hse_frequencies {
            for &m in &self.pllm_values {
                for &n in &self.plln_values {
                    for &p in &self.pllp_values {
                        let Ok(cfg) = PllConfig::new(ClockSource::hse(hse), m, n, p) else {
                            continue;
                        };
                        if cfg.sysclk() == target && best.is_none_or(|b| key(&cfg) < key(&b)) {
                            best = Some(cfg);
                        }
                    }
                }
            }
        }
        best
    }

    /// The distinct SYSCLK frequencies the grid can produce via the PLL,
    /// ascending.
    pub fn available_sysclks(&self) -> Vec<Hertz> {
        self.iso_frequency_groups()
            .into_iter()
            .map(|g| g.sysclk)
            .collect()
    }
}

impl Default for ConfigSpace {
    fn default() -> Self {
        ConfigSpace::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_grid_produces_expected_hfo_ladder() {
        let freqs = ConfigSpace::paper().available_sysclks();
        // PLLM=25 (VCO-in 2 MHz): sysclk = PLLN MHz for PLLN <= 216.
        // PLLM=50 (VCO-in 1 MHz): sysclk = PLLN/2 MHz where VCO >= 100 MHz.
        for expected in [75u64, 84, 100, 108, 150, 168, 216] {
            assert!(
                freqs.contains(&Hertz::mhz(expected)),
                "missing {expected} MHz in {freqs:?}"
            );
        }
        // PLLN=336/432 with PLLM=25 would exceed the 216 MHz SYSCLK ceiling
        // (and the VCO window): they must be skipped, not enumerated.
        assert!(!freqs.contains(&Hertz::mhz(336)));
        assert!(!freqs.contains(&Hertz::mhz(432)));
    }

    #[test]
    fn enumerate_only_valid_configs() {
        for cfg in ConfigSpace::wide().enumerate_pll() {
            assert!(cfg.validate().is_ok(), "invalid config leaked: {cfg}");
        }
    }

    #[test]
    fn iso_groups_share_frequency_and_sort_by_vco() {
        for group in ConfigSpace::wide().iso_frequency_groups() {
            assert!(!group.configs.is_empty());
            for cfg in &group.configs {
                assert_eq!(cfg.sysclk(), group.sysclk);
            }
            for w in group.configs.windows(2) {
                assert!(w[0].vco_output() <= w[1].vco_output());
            }
            assert!(group.coolest().vco_output() <= group.hottest().vco_output());
        }
    }

    #[test]
    fn iso_frequency_gap_exists_at_100_mhz() {
        // The Fig. 2 observation: the wide grid contains 100 MHz configs
        // with different VCO frequencies.
        let group = ConfigSpace::wide()
            .iso_frequency_groups()
            .into_iter()
            .find(|g| g.sysclk == Hertz::mhz(100))
            .expect("100 MHz reachable");
        assert!(
            group.hottest().vco_output() > group.coolest().vco_output(),
            "expected a VCO spread at 100 MHz"
        );
    }

    #[test]
    fn min_vco_config_picks_coolest() {
        let space = ConfigSpace::wide();
        let best = space.min_vco_config(Hertz::mhz(100)).unwrap();
        for cfg in space.enumerate_pll() {
            if cfg.sysclk() == Hertz::mhz(100) {
                assert!(best.vco_output() <= cfg.vco_output());
            }
        }
    }

    /// The full datasheet divider grid on a 50 MHz HSE — the space
    /// `OperatingModes::from_sysclks` searches for the lean target.
    fn datasheet_grid() -> ConfigSpace {
        let mut space = ConfigSpace::new();
        space.hse(Hertz::mhz(50));
        for m in 2..=63 {
            space.pllm(m);
        }
        for n in 50..=432 {
            space.plln(n);
        }
        space.pllp_set(&[2, 4, 6, 8]);
        space
    }

    fn assert_streaming_matches_grouped(space: &ConfigSpace, keep: impl Fn(usize, Hertz) -> bool) {
        let groups = space.iso_frequency_groups();
        assert!(!groups.is_empty());
        for (i, group) in groups
            .iter()
            .enumerate()
            .filter(|(i, g)| keep(*i, g.sysclk))
        {
            assert_eq!(
                space.min_vco_config(group.sysclk),
                Some(*group.coolest()),
                "group {i}: {} Hz",
                group.sysclk.as_u64()
            );
        }
    }

    #[test]
    fn streaming_min_vco_config_matches_the_grouped_coolest() {
        assert_streaming_matches_grouped(&ConfigSpace::wide(), |_, _| true);
        assert_streaming_matches_grouped(&ConfigSpace::paper(), |_, _| true);
        // The datasheet grid reaches ~14.6 k distinct frequencies and each
        // query is a full pass over its ~95 k dividers, so check every
        // whole-MHz SYSCLK (the lean ladder's among them) plus an evenly
        // strided sample of the rest.
        assert_streaming_matches_grouped(&datasheet_grid(), |i, f| {
            f.as_u64() % 1_000_000 == 0 || i % 256 == 0
        });
    }

    #[test]
    fn min_vco_config_none_for_unreachable() {
        assert_eq!(ConfigSpace::paper().min_vco_config(Hertz::mhz(123)), None);
    }

    #[test]
    fn enumerate_includes_direct_hse() {
        let cfgs = ConfigSpace::paper().enumerate();
        assert!(cfgs
            .iter()
            .any(|c| matches!(c, SysclkConfig::HseDirect(f) if *f == Hertz::mhz(50))));
    }

    #[test]
    fn builder_methods_extend_grid() {
        let mut space = ConfigSpace::new();
        space
            .hse(Hertz::mhz(50))
            .pllm(25)
            .plln(100)
            .pllp_set(&[2, 4]);
        let cfgs = space.enumerate_pll();
        // 50/25*100/2 = 100 MHz and 50/25*100/4 = 50 MHz.
        assert_eq!(cfgs.len(), 2);
    }

    #[test]
    fn empty_space_enumerates_nothing() {
        assert!(ConfigSpace::new().enumerate().is_empty());
        assert!(ConfigSpace::default().iso_frequency_groups().is_empty());
    }
}
