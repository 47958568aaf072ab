//! Model graphs: layers, residual blocks, and shape-checked inference.

use std::fmt;

use crate::error::NnError;
use crate::layers::{AvgPool, Conv2d, Dense, DepthwiseConv2d, MaxPool2d, PointwiseConv2d, Relu};
use crate::tensor::{Shape, Tensor};

/// Classification of a layer for the paper's reporting (Fig. 6 groups
/// layers into pointwise / depthwise / "rest").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayerKind {
    /// Depthwise convolution (DAE target).
    Depthwise,
    /// Pointwise convolution (DAE target).
    Pointwise,
    /// Everything else.
    Rest,
}

impl LayerKind {
    /// The kind's lower-case name (its `Display` form).
    pub fn as_str(self) -> &'static str {
        match self {
            LayerKind::Depthwise => "depthwise",
            LayerKind::Pointwise => "pointwise",
            LayerKind::Rest => "rest",
        }
    }
}

impl fmt::Display for LayerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A single layer of any supported type.
#[derive(Debug, Clone, PartialEq)]
pub enum Layer {
    /// Full convolution.
    Conv2d(Conv2d),
    /// Depthwise convolution.
    Depthwise(DepthwiseConv2d),
    /// Pointwise (1×1) convolution.
    Pointwise(PointwiseConv2d),
    /// Fully connected.
    Dense(Dense),
    /// Global average pool.
    AvgPool(AvgPool),
    /// Max pool.
    MaxPool(MaxPool2d),
    /// Standalone ReLU.
    Relu(Relu),
}

impl Layer {
    /// The reporting kind of this layer.
    pub fn kind(&self) -> LayerKind {
        match self {
            Layer::Depthwise(_) => LayerKind::Depthwise,
            Layer::Pointwise(_) => LayerKind::Pointwise,
            _ => LayerKind::Rest,
        }
    }

    /// Output shape for `input`.
    ///
    /// # Errors
    ///
    /// Propagates the wrapped layer's shape errors.
    pub fn output_shape(&self, input: Shape) -> Result<Shape, NnError> {
        match self {
            Layer::Conv2d(l) => l.output_shape(input),
            Layer::Depthwise(l) => l.output_shape(input),
            Layer::Pointwise(l) => l.output_shape(input),
            Layer::Dense(l) => l.output_shape(input),
            Layer::AvgPool(l) => Ok(l.output_shape(input)),
            Layer::MaxPool(l) => l.output_shape(input),
            Layer::Relu(l) => Ok(l.output_shape(input)),
        }
    }

    /// Runs the layer.
    ///
    /// # Errors
    ///
    /// Propagates the wrapped layer's errors.
    pub fn forward(&self, input: &Tensor) -> Result<Tensor, NnError> {
        match self {
            Layer::Conv2d(l) => l.forward(input),
            Layer::Depthwise(l) => l.forward(input),
            Layer::Pointwise(l) => l.forward(input),
            Layer::Dense(l) => l.forward(input),
            Layer::AvgPool(l) => l.forward(input),
            Layer::MaxPool(l) => l.forward(input),
            Layer::Relu(l) => l.forward(input),
        }
    }

    /// Multiply-accumulates for `input`.
    pub fn macs(&self, input: Shape) -> u64 {
        match self {
            Layer::Conv2d(l) => l.macs(input),
            Layer::Depthwise(l) => l.macs(input),
            Layer::Pointwise(l) => l.macs(input),
            Layer::Dense(l) => l.macs(input),
            Layer::AvgPool(_) | Layer::MaxPool(_) | Layer::Relu(_) => 0,
        }
    }

    /// Flash-resident weight bytes.
    pub fn weight_bytes(&self) -> usize {
        match self {
            Layer::Conv2d(l) => l.weight_bytes(),
            Layer::Depthwise(l) => l.weight_bytes(),
            Layer::Pointwise(l) => l.weight_bytes(),
            Layer::Dense(l) => l.weight_bytes(),
            Layer::AvgPool(_) | Layer::MaxPool(_) | Layer::Relu(_) => 0,
        }
    }
}

/// A named layer within a model.
#[derive(Debug, Clone, PartialEq)]
pub struct NamedLayer {
    /// Unique-ish name (e.g. `"b3.dw"`).
    pub name: String,
    /// The layer.
    pub layer: Layer,
}

/// A sequential group of layers, optionally with a residual (skip) add from
/// the block input to its output — the MobileNetV2 inverted-residual shape.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// Block name.
    pub name: String,
    /// Whether the block output is `input + branch(input)` (saturating).
    pub residual: bool,
    /// The branch layers.
    pub layers: Vec<NamedLayer>,
}

/// Static description of one layer in a shape-resolved execution plan.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerInfo {
    /// Index in the flattened layer order.
    pub index: usize,
    /// Layer name.
    pub name: String,
    /// Reporting kind.
    pub kind: LayerKind,
    /// Input shape.
    pub input: Shape,
    /// Output shape.
    pub output: Shape,
    /// Multiply-accumulates.
    pub macs: u64,
    /// Flash-resident weight bytes.
    pub weight_bytes: usize,
}

/// A complete CNN model: named blocks over a fixed input shape.
///
/// # Examples
///
/// ```
/// use tinynn::models::vww_sized;
///
/// # fn main() -> Result<(), tinynn::NnError> {
/// let model = vww_sized(32);
/// let plan = model.plan()?;
/// assert!(plan.len() > 10);
/// assert!(model.total_macs()? > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Model {
    /// Model name (e.g. `"vww"`).
    pub name: String,
    /// Expected input shape.
    pub input_shape: Shape,
    /// The blocks in execution order.
    pub blocks: Vec<Block>,
}

impl Model {
    /// Creates a model from blocks.
    pub fn new(name: impl Into<String>, input_shape: Shape, blocks: Vec<Block>) -> Self {
        Model {
            name: name.into(),
            input_shape,
            blocks,
        }
    }

    /// Iterates over all layers in execution order.
    pub fn layers(&self) -> impl Iterator<Item = &NamedLayer> {
        self.blocks.iter().flat_map(|b| b.layers.iter())
    }

    /// Number of layers (flattened).
    pub fn layer_count(&self) -> usize {
        self.blocks.iter().map(|b| b.layers.len()).sum()
    }

    /// Resolves shapes through the whole model, producing one
    /// [`LayerInfo`] per layer.
    ///
    /// # Errors
    ///
    /// Returns the first shape error encountered, or
    /// [`NnError::ResidualShapeMismatch`] if a residual block's branch
    /// changes the shape.
    pub fn plan(&self) -> Result<Vec<LayerInfo>, NnError> {
        let mut infos = Vec::with_capacity(self.layer_count());
        let mut shape = self.input_shape;
        let mut index = 0;
        for block in &self.blocks {
            let block_in = shape;
            for nl in &block.layers {
                let out = nl.layer.output_shape(shape)?;
                infos.push(LayerInfo {
                    index,
                    name: nl.name.clone(),
                    kind: nl.layer.kind(),
                    input: shape,
                    output: out,
                    macs: nl.layer.macs(shape),
                    weight_bytes: nl.layer.weight_bytes(),
                });
                shape = out;
                index += 1;
            }
            if block.residual && shape != block_in {
                return Err(NnError::ResidualShapeMismatch {
                    block: block.name.clone(),
                    input: block_in,
                    output: shape,
                });
            }
        }
        Ok(infos)
    }

    /// The model output shape.
    ///
    /// # Errors
    ///
    /// Propagates [`Model::plan`] errors.
    pub fn output_shape(&self) -> Result<Shape, NnError> {
        Ok(self
            .plan()?
            .last()
            .map(|l| l.output)
            .unwrap_or(self.input_shape))
    }

    /// Total multiply-accumulates of one inference.
    ///
    /// # Errors
    ///
    /// Propagates [`Model::plan`] errors.
    pub fn total_macs(&self) -> Result<u64, NnError> {
        Ok(self.plan()?.iter().map(|l| l.macs).sum())
    }

    /// Total flash-resident weight bytes.
    pub fn weight_bytes(&self) -> usize {
        self.layers().map(|l| l.layer.weight_bytes()).sum()
    }

    /// Renders a human-readable per-layer summary table.
    ///
    /// # Errors
    ///
    /// Propagates [`Model::plan`] errors.
    ///
    /// ```
    /// use tinynn::models::vww_sized;
    ///
    /// # fn main() -> Result<(), tinynn::NnError> {
    /// let table = vww_sized(32).summary()?;
    /// assert!(table.contains("stem.conv"));
    /// assert!(table.contains("total"));
    /// # Ok(())
    /// # }
    /// ```
    pub fn summary(&self) -> Result<String, NnError> {
        use std::fmt::Write as _;
        let plan = self.plan()?;
        let mut out = String::new();
        let _ = writeln!(out, "{} ({} -> {})", self.name, self.input_shape, {
            plan.last().map(|l| l.output).unwrap_or(self.input_shape)
        });
        let _ = writeln!(
            out,
            "{:>18} | {:>10} | {:>11} | {:>11} | {:>10} | {:>9}",
            "layer", "kind", "input", "output", "MACs", "weights"
        );
        for info in &plan {
            let _ = writeln!(
                out,
                "{:>18} | {:>10} | {:>11} | {:>11} | {:>10} | {:>7} B",
                info.name,
                info.kind.to_string(),
                info.input.to_string(),
                info.output.to_string(),
                info.macs,
                info.weight_bytes
            );
        }
        let total_macs: u64 = plan.iter().map(|l| l.macs).sum();
        let total_weights: usize = plan.iter().map(|l| l.weight_bytes).sum();
        let _ = writeln!(
            out,
            "{:>18} | {:>10} | {:>11} | {:>11} | {:>10} | {:>7} B",
            "total", "", "", "", total_macs, total_weights
        );
        Ok(out)
    }

    /// Runs a full inference.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::LayerInputMismatch`] if `input` does not match
    /// [`Model::input_shape`], and propagates layer errors.
    pub fn infer(&self, input: &Tensor) -> Result<Tensor, NnError> {
        if input.shape() != self.input_shape {
            return Err(NnError::LayerInputMismatch {
                layer: self.name.clone(),
                expected: self.input_shape.to_string(),
                actual: input.shape(),
            });
        }
        let mut x = input.clone();
        for block in &self.blocks {
            let block_in = if block.residual {
                Some(x.clone())
            } else {
                None
            };
            for nl in &block.layers {
                x = nl.layer.forward(&x)?;
            }
            if let Some(skip) = block_in {
                if skip.shape() != x.shape() {
                    return Err(NnError::ResidualShapeMismatch {
                        block: block.name.clone(),
                        input: skip.shape(),
                        output: x.shape(),
                    });
                }
                let data = x.data_mut();
                for (o, s) in data.iter_mut().zip(skip.data()) {
                    *o = o.saturating_add(*s);
                }
            }
        }
        Ok(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quant::QuantParams;

    fn tiny_model(residual: bool) -> Model {
        let q = QuantParams::from_scales(1.0, 1.0, 127.0);
        let mut wid = vec![0i8; 4 * 4];
        for i in 0..4 {
            wid[i * 4 + i] = 127; // identity pointwise
        }
        Model::new(
            "tiny",
            Shape::new(4, 4, 4),
            vec![Block {
                name: "b0".into(),
                residual,
                layers: vec![NamedLayer {
                    name: "b0.pw".into(),
                    layer: Layer::Pointwise(
                        PointwiseConv2d::new(4, 4, wid, vec![0; 4], q).unwrap(),
                    ),
                }],
            }],
        )
    }

    #[test]
    fn plan_resolves_shapes() {
        let m = tiny_model(false);
        let plan = m.plan().unwrap();
        assert_eq!(plan.len(), 1);
        assert_eq!(plan[0].input, Shape::new(4, 4, 4));
        assert_eq!(plan[0].output, Shape::new(4, 4, 4));
        assert_eq!(plan[0].kind, LayerKind::Pointwise);
        assert_eq!(plan[0].macs, (4 * 4 * 4 * 4) as u64);
    }

    #[test]
    fn residual_adds_input() {
        let m = tiny_model(true);
        let input = Tensor::from_fn(Shape::new(4, 4, 4), |_, _, c| (c as i8) + 1);
        let out = m.infer(&input).unwrap();
        // identity branch + skip = 2x input.
        for c in 0..4 {
            assert_eq!(out.get(0, 0, c).unwrap(), 2 * (c as i8 + 1));
        }
    }

    #[test]
    fn residual_saturates() {
        let m = tiny_model(true);
        let input = Tensor::from_fn(Shape::new(4, 4, 4), |_, _, _| 120);
        let out = m.infer(&input).unwrap();
        assert_eq!(out.get(0, 0, 0).unwrap(), 127, "must saturate, not wrap");
    }

    #[test]
    fn wrong_input_shape_rejected() {
        let m = tiny_model(false);
        let input = Tensor::zeros(Shape::new(4, 4, 3));
        assert!(matches!(
            m.infer(&input),
            Err(NnError::LayerInputMismatch { .. })
        ));
    }

    #[test]
    fn kind_display() {
        assert_eq!(LayerKind::Depthwise.to_string(), "depthwise");
        assert_eq!(LayerKind::Pointwise.to_string(), "pointwise");
        assert_eq!(LayerKind::Rest.to_string(), "rest");
    }

    #[test]
    fn layer_count_flattens_blocks() {
        let m = tiny_model(false);
        assert_eq!(m.layer_count(), 1);
        assert_eq!(m.layers().count(), 1);
    }
}
