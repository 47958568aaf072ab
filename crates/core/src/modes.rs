//! LFO / HFO operating modes (paper Sec. III-B).
//!
//! * **LFO** (Low Frequency Operation) "exclusively employs the HSE clock
//!   source at a predefined frequency (50 MHz) and aims to reduce power";
//!   it drives the memory-bound DAE segments.
//! * **HFO** (High Frequency Operation) "configures the system's clock
//!   using the PLL circuit" with `PLLN ∈ {75,100,150,168,216,336,432}` and
//!   `PLLM ∈ {25,50}`; it drives the compute-bound segments.
//!
//! Keeping the HFO PLL locked while SYSCLK runs off the HSE is what makes
//! LFO↔HFO transitions nearly free (a mux toggle instead of a 200 µs
//! re-lock).

use stm32_rcc::{ConfigSpace, Hertz, PllConfig, SysclkConfig, LFO_HSE};

/// The operating-mode universe a deployment may draw from.
#[derive(Debug, Clone, PartialEq)]
pub struct OperatingModes {
    /// The fixed LFO configuration (HSE direct).
    pub lfo: SysclkConfig,
    /// Candidate HFO PLL configurations, ascending SYSCLK, one per distinct
    /// frequency (the power-optimal, i.e. minimum-VCO, representative).
    pub hfo: Vec<PllConfig>,
}

impl OperatingModes {
    /// The paper's mode set: LFO at 50 MHz, HFO candidates from the
    /// `PLLM ∈ {25,50}` × `PLLN ∈ {75..432}` grid on a 50 MHz HSE, reduced
    /// to the power-optimal configuration per distinct frequency.
    pub fn paper() -> Self {
        let space = ConfigSpace::paper();
        let hfo = space
            .iso_frequency_groups()
            .into_iter()
            .map(|g| *g.coolest())
            .collect();
        OperatingModes {
            lfo: SysclkConfig::hse_direct(LFO_HSE),
            hfo,
        }
    }

    /// Restricts the HFO ladder to the frequencies of the paper's Fig. 4
    /// sweep: 75, 100, 150, 168 and 216 MHz.
    pub fn fig4() -> Self {
        let all = OperatingModes::paper();
        let keep: [Hertz; 5] = [
            Hertz::mhz(75),
            Hertz::mhz(100),
            Hertz::mhz(150),
            Hertz::mhz(168),
            Hertz::mhz(216),
        ];
        OperatingModes {
            lfo: all.lfo,
            hfo: all
                .hfo
                .into_iter()
                .filter(|p| keep.contains(&p.sysclk()))
                .collect(),
        }
    }

    /// Builds a mode universe from an explicit LFO configuration and HFO
    /// ladder — the constructor a non-F767 target description uses.
    ///
    /// The ladder is sorted ascending by SYSCLK and de-duplicated per
    /// distinct frequency (first, i.e. coolest-VCO, representative wins,
    /// matching [`OperatingModes::paper`]).
    ///
    /// # Panics
    ///
    /// Panics if `hfo` is empty or `lfo` is invalid.
    pub fn custom(lfo: SysclkConfig, mut hfo: Vec<PllConfig>) -> Self {
        assert!(!hfo.is_empty(), "HFO ladder must not be empty");
        lfo.validate()
            .unwrap_or_else(|e| panic!("invalid LFO configuration: {e}"));
        hfo.sort_by_key(|p| (p.sysclk(), p.vco_output(), p.label_tuple()));
        hfo.dedup_by_key(|p| p.sysclk());
        OperatingModes { lfo, hfo }
    }

    /// Builds a mode universe from target SYSCLK frequencies: for each
    /// requested frequency the power-optimal (minimum-VCO) PLL
    /// configuration reachable from `hse` over the full divider space is
    /// selected.
    ///
    /// Each frequency is one allocation-free [`ConfigSpace::min_vco_config`]
    /// pass over the ~95 k datasheet dividers; the valid configurations
    /// are never materialised or grouped, so building a target (as every
    /// service restart does) allocates nothing grid-sized.
    ///
    /// Returns `None` if any requested frequency is unreachable from
    /// `hse` within the datasheet windows.
    pub fn from_sysclks(lfo: Hertz, hse: Hertz, sysclks: &[Hertz]) -> Option<Self> {
        let mut space = ConfigSpace::new();
        space.hse(hse);
        for m in 2..=63 {
            space.pllm(m);
        }
        for n in 50..=432 {
            space.plln(n);
        }
        space.pllp_set(&[2, 4, 6, 8]);
        let hfo = sysclks
            .iter()
            .map(|&f| space.min_vco_config(f))
            .collect::<Option<Vec<_>>>()?;
        Some(OperatingModes::custom(SysclkConfig::hse_direct(lfo), hfo))
    }

    /// The HFO candidate producing exactly `sysclk`, if present.
    pub fn hfo_at(&self, sysclk: Hertz) -> Option<&PllConfig> {
        self.hfo.iter().find(|p| p.sysclk() == sysclk)
    }

    /// The fastest HFO candidate.
    ///
    /// # Panics
    ///
    /// Panics if the HFO set is empty.
    pub fn fastest_hfo(&self) -> &PllConfig {
        self.hfo
            .iter()
            .max_by_key(|p| p.sysclk())
            .expect("HFO set must not be empty")
    }

    /// The LFO frequency.
    pub fn lfo_sysclk(&self) -> Hertz {
        self.lfo.sysclk()
    }

    /// Replaces the LFO with a direct-HSE configuration at `freq` (builder
    /// style). The paper fixes LFO at 50 MHz; lower HSE frequencies trade
    /// staging latency for even less power — explored by the LFO ablation.
    ///
    /// # Panics
    ///
    /// Panics if `freq` is not a valid HSE frequency (1–50 MHz).
    pub fn with_lfo(mut self, freq: Hertz) -> Self {
        let cfg = SysclkConfig::hse_direct(freq);
        cfg.validate()
            .unwrap_or_else(|e| panic!("invalid LFO frequency {freq}: {e}"));
        self.lfo = cfg;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_modes_contain_expected_ladder() {
        let m = OperatingModes::paper();
        assert_eq!(m.lfo_sysclk(), Hertz::mhz(50));
        for mhz in [75u64, 100, 150, 168, 216] {
            assert!(m.hfo_at(Hertz::mhz(mhz)).is_some(), "missing HFO {mhz} MHz");
        }
        assert_eq!(m.fastest_hfo().sysclk(), Hertz::mhz(216));
    }

    #[test]
    fn one_candidate_per_frequency() {
        let m = OperatingModes::paper();
        let mut freqs: Vec<Hertz> = m.hfo.iter().map(|p| p.sysclk()).collect();
        let before = freqs.len();
        freqs.dedup();
        assert_eq!(before, freqs.len(), "duplicate frequencies in HFO set");
    }

    #[test]
    fn candidates_are_min_vco_per_frequency() {
        let m = OperatingModes::paper();
        let space = ConfigSpace::paper();
        for cand in &m.hfo {
            for other in space.enumerate_pll() {
                if other.sysclk() == cand.sysclk() {
                    assert!(cand.vco_output() <= other.vco_output());
                }
            }
        }
    }

    #[test]
    fn fig4_is_a_subset() {
        let fig4 = OperatingModes::fig4();
        assert_eq!(fig4.hfo.len(), 5);
        let paper = OperatingModes::paper();
        for p in &fig4.hfo {
            assert!(paper.hfo.contains(p));
        }
    }

    #[test]
    fn all_candidates_valid() {
        for p in OperatingModes::paper().hfo {
            assert!(p.validate().is_ok());
        }
    }

    #[test]
    fn custom_ladder_sorted_and_deduplicated() {
        let paper = OperatingModes::paper();
        // Feed the paper ladder in reverse with a duplicate frequency: the
        // constructor must restore ascending order and one-per-frequency.
        let mut shuffled: Vec<_> = paper.hfo.iter().rev().copied().collect();
        shuffled.push(paper.hfo[0]);
        let rebuilt = OperatingModes::custom(paper.lfo, shuffled);
        assert_eq!(rebuilt.hfo, paper.hfo);
        assert_eq!(rebuilt.lfo, paper.lfo);
    }

    #[test]
    fn from_sysclks_picks_min_vco_per_frequency() {
        let modes = OperatingModes::from_sysclks(
            Hertz::mhz(25),
            Hertz::mhz(25),
            &[Hertz::mhz(100), Hertz::mhz(150), Hertz::mhz(180)],
        )
        .expect("all frequencies reachable from a 25 MHz HSE");
        assert_eq!(modes.lfo_sysclk(), Hertz::mhz(25));
        assert_eq!(modes.hfo.len(), 3);
        for p in &modes.hfo {
            assert!(p.validate().is_ok());
        }
        // 100 MHz min-VCO from 25 MHz HSE: VCO 200 (e.g. /25 x200 /2 or
        // equivalent); never more than the 2x floor imposed by PLLP=2.
        let f100 = modes.hfo_at(Hertz::mhz(100)).unwrap();
        assert_eq!(f100.vco_output(), Hertz::mhz(200));
    }

    #[test]
    fn from_sysclks_rejects_unreachable_frequency() {
        // 217 MHz exceeds the SYSCLK ceiling: unreachable.
        assert!(
            OperatingModes::from_sysclks(Hertz::mhz(50), Hertz::mhz(50), &[Hertz::mhz(217)])
                .is_none()
        );
    }
}
