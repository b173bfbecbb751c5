//! SGD with momentum and weight decay (Caffe-style update rule, matching
//! the paper's training setup).
//!
//! Update per parameter: `v ← μ·v + α·(g + λ·w)` then `w ← w − v`.
//! The momentum buffer `v` lives in each [`Param`]; its mean magnitude is
//! the `M̄` the adaptive controller reads (paper Eq. 8) — momentum is
//! "naturally supported and activated" exactly as the paper notes for
//! Caffe/TensorFlow.

use crate::layer::Param;

/// Learning-rate schedule.
#[derive(Debug, Clone, PartialEq)]
pub enum LrSchedule {
    /// Fixed learning rate.
    Constant,
    /// Multiply by `gamma` every `every` iterations.
    Step {
        /// Interval in iterations.
        every: usize,
        /// Decay factor.
        gamma: f32,
    },
    /// Multiply by `gamma` at each listed iteration.
    MultiStep {
        /// Decay milestones (iteration numbers, ascending).
        milestones: Vec<usize>,
        /// Decay factor.
        gamma: f32,
    },
}

/// SGD hyper-parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct SgdConfig {
    /// Base learning rate α.
    pub lr: f32,
    /// Momentum coefficient μ (0.9 in the paper's setups).
    pub momentum: f32,
    /// L2 weight decay λ (applied to weights, not biases).
    pub weight_decay: f32,
    /// Schedule applied to α.
    pub schedule: LrSchedule,
}

impl Default for SgdConfig {
    fn default() -> Self {
        SgdConfig {
            lr: 0.01,
            momentum: 0.9,
            weight_decay: 5e-4,
            schedule: LrSchedule::Constant,
        }
    }
}

impl SgdConfig {
    /// Learning rate at iteration `iter` under the schedule.
    pub fn lr_at(&self, iter: usize) -> f32 {
        match &self.schedule {
            LrSchedule::Constant => self.lr,
            LrSchedule::Step { every, gamma } => {
                let k = if *every == 0 { 0 } else { iter / every };
                self.lr * gamma.powi(k as i32)
            }
            LrSchedule::MultiStep { milestones, gamma } => {
                let k = milestones.iter().filter(|&&m| iter >= m).count();
                self.lr * gamma.powi(k as i32)
            }
        }
    }
}

/// The Caffe update rule over **flat slices** — the exact per-element
/// math of [`Sgd::step`], exposed so a ZeRO-style sharded optimizer
/// (`ebtrain-dist`) can update its owned 1/N parameter shard with its
/// own flat momentum buffer and stay bit-identical to a local step.
/// `decay[i]` says whether weight decay applies to element `i` (true
/// for weights, false for biases).
pub fn flat_sgd_update(
    cfg: &SgdConfig,
    iter: usize,
    values: &mut [f32],
    grads: &[f32],
    momentum: &mut [f32],
    decay: &[bool],
) {
    let lr = cfg.lr_at(iter);
    let mu = cfg.momentum;
    for i in 0..values.len() {
        let wd = if decay[i] { cfg.weight_decay } else { 0.0 };
        let g = grads[i] + wd * values[i];
        momentum[i] = mu * momentum[i] + lr * g;
        values[i] -= momentum[i];
    }
}

/// The optimizer: holds config and the iteration counter.
#[derive(Debug, Clone)]
pub struct Sgd {
    cfg: SgdConfig,
    iter: usize,
}

impl Sgd {
    /// New optimizer at iteration 0.
    pub fn new(cfg: SgdConfig) -> Sgd {
        Sgd { cfg, iter: 0 }
    }

    /// Current learning rate under the schedule.
    pub fn current_lr(&self) -> f32 {
        self.cfg.lr_at(self.iter)
    }

    /// Completed iterations.
    pub fn iteration(&self) -> usize {
        self.iter
    }

    /// Apply one update to every parameter and advance the counter.
    ///
    /// Gradients are consumed (zeroed) by the caller via
    /// [`Network::zero_grads`](crate::network::Network::zero_grads).
    pub fn step(&mut self, params: Vec<&mut Param>) {
        let lr = self.current_lr();
        let mu = self.cfg.momentum;
        for p in params {
            let wd = if p.weight_decay {
                self.cfg.weight_decay
            } else {
                0.0
            };
            let value = p.value.data_mut();
            let grad = p.grad.data();
            let mom = p.momentum.data_mut();
            for i in 0..value.len() {
                let g = grad[i] + wd * value[i];
                mom[i] = mu * mom[i] + lr * g;
                value[i] -= mom[i];
            }
        }
        self.iter += 1;
    }

    /// Advance the iteration counter by one without touching a
    /// parameter — for a step whose update a gradient sync applied
    /// itself ([`SyncAction::StepApplied`](crate::train::SyncAction)).
    pub fn advance(&mut self) {
        self.iter += 1;
    }

    /// Config access.
    pub fn config(&self) -> &SgdConfig {
        &self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebtrain_tensor::Tensor;

    fn param(v: f32, g: f32, decay: bool) -> Param {
        let mut p = Param::new(Tensor::from_vec(&[1], vec![v]).unwrap(), decay);
        p.grad = Tensor::from_vec(&[1], vec![g]).unwrap();
        p
    }

    #[test]
    fn plain_sgd_without_momentum() {
        let mut opt = Sgd::new(SgdConfig {
            lr: 0.1,
            momentum: 0.0,
            weight_decay: 0.0,
            schedule: LrSchedule::Constant,
        });
        let mut p = param(1.0, 2.0, true);
        opt.step(vec![&mut p]);
        assert!((p.value.data()[0] - 0.8).abs() < 1e-6);
    }

    #[test]
    fn momentum_accumulates_across_steps() {
        let mut opt = Sgd::new(SgdConfig {
            lr: 0.1,
            momentum: 0.9,
            weight_decay: 0.0,
            schedule: LrSchedule::Constant,
        });
        let mut p = param(0.0, 1.0, false);
        opt.step(vec![&mut p]); // v=0.1, w=-0.1
        p.grad.data_mut()[0] = 1.0;
        opt.step(vec![&mut p]); // v=0.19, w=-0.29
        assert!((p.momentum.data()[0] - 0.19).abs() < 1e-6);
        assert!((p.value.data()[0] + 0.29).abs() < 1e-6);
    }

    #[test]
    fn weight_decay_only_on_decay_params() {
        let cfg = SgdConfig {
            lr: 1.0,
            momentum: 0.0,
            weight_decay: 0.5,
            schedule: LrSchedule::Constant,
        };
        let mut w = param(2.0, 0.0, true);
        let mut b = param(2.0, 0.0, false);
        let mut opt = Sgd::new(cfg);
        opt.step(vec![&mut w, &mut b]);
        assert!((w.value.data()[0] - 1.0).abs() < 1e-6); // 2 - 1*0.5*2
        assert!((b.value.data()[0] - 2.0).abs() < 1e-6); // untouched
    }

    #[test]
    fn step_schedule_decays_lr() {
        let mut opt = Sgd::new(SgdConfig {
            lr: 1.0,
            momentum: 0.0,
            weight_decay: 0.0,
            schedule: LrSchedule::Step {
                every: 2,
                gamma: 0.1,
            },
        });
        assert_eq!(opt.current_lr(), 1.0);
        let mut p = param(0.0, 0.0, false);
        opt.step(vec![&mut p]);
        assert_eq!(opt.current_lr(), 1.0); // iter 1
        opt.step(vec![&mut p]);
        assert!((opt.current_lr() - 0.1).abs() < 1e-7); // iter 2
    }

    #[test]
    fn multistep_schedule() {
        let mut opt = Sgd::new(SgdConfig {
            lr: 1.0,
            momentum: 0.0,
            weight_decay: 0.0,
            schedule: LrSchedule::MultiStep {
                milestones: vec![3, 5],
                gamma: 0.5,
            },
        });
        let mut p = param(0.0, 0.0, false);
        for _ in 0..3 {
            opt.step(vec![&mut p]);
        }
        assert!((opt.current_lr() - 0.5).abs() < 1e-7);
        for _ in 0..2 {
            opt.step(vec![&mut p]);
        }
        assert!((opt.current_lr() - 0.25).abs() < 1e-7);
    }

    #[test]
    fn flat_update_is_bit_identical_to_param_update() {
        let cfg = SgdConfig {
            lr: 0.05,
            momentum: 0.9,
            weight_decay: 5e-4,
            schedule: LrSchedule::Step {
                every: 2,
                gamma: 0.5,
            },
        };
        let mut opt = Sgd::new(cfg.clone());
        let mut w = param(0.7, 0.3, true);
        let mut b = param(-0.2, 0.1, false);
        let mut values = vec![0.7f32, -0.2];
        let grads = vec![0.3f32, 0.1];
        let mut mom = vec![0.0f32, 0.0];
        let decay = vec![true, false];
        for it in 0..5 {
            flat_sgd_update(&cfg, it, &mut values, &grads, &mut mom, &decay);
            w.grad.data_mut()[0] = grads[0];
            b.grad.data_mut()[0] = grads[1];
            opt.step(vec![&mut w, &mut b]);
            assert_eq!(values[0].to_bits(), w.value.data()[0].to_bits());
            assert_eq!(values[1].to_bits(), b.value.data()[0].to_bits());
            assert_eq!(mom[0].to_bits(), w.momentum.data()[0].to_bits());
            assert_eq!(mom[1].to_bits(), b.momentum.data()[0].to_bits());
        }
    }

    #[test]
    fn momentum_mean_visible_to_controller() {
        let mut opt = Sgd::new(SgdConfig::default());
        let mut p = param(1.0, 0.5, true);
        opt.step(vec![&mut p]);
        assert!(p.momentum_abs_mean() > 0.0);
    }
}
