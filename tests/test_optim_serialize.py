import numpy as np
import pytest

from loglens.autodiff import Adam, ParamSet, load_params, save_params
from loglens.exceptions import FormatError, TrainingError


def single_param(value, grad):
    ps = ParamSet(0)
    p = ps.zeros("p", np.shape(value))
    p.data = np.array(value, dtype=np.float64)
    if grad is not None:
        p.grad = np.array(grad, dtype=np.float64)
    return ps, p


class TestOptimizers:
    def test_zero_gradient_leaves_params_unchanged(self):
        ps, p = single_param([1.0, -2.0], [0.0, 0.0])
        before = p.data.copy()
        Adam(lr=0.1).step(ps)
        assert np.array_equal(p.data, before)

    def test_adam_first_step_magnitude_is_lr(self):
        # bias-corrected first step: lr * g / (|g| + eps) ~= lr * sign(g)
        for g in (3.0, -0.01, 0.7):
            ps, p = single_param([1.0], [g])
            Adam(lr=1e-3).step(ps)
            assert abs(abs(p.data[0] - 1.0) - 1e-3) < 1e-8

    def test_missing_gradient_raises(self):
        ps, _ = single_param([1.0], None)
        with pytest.raises(TrainingError, match="p"):
            Adam(lr=0.1).step(ps)


class TestParamContainer:
    def test_round_trip_bit_exact(self, tmp_path):
        ps = ParamSet(99)
        ps.uniform("layer.w", (7, 5), fan_in=7)
        ps.zeros("layer.b", (5,))
        ps.constant("table", np.arange(12.0).reshape(3, 4))
        path = tmp_path / "params.llns"
        save_params(ps.copy_values(), path)
        loaded = load_params(path)
        assert list(loaded) == ps.names()
        for name, arr in loaded.items():
            assert arr.dtype == np.float64
            assert np.array_equal(arr, ps[name].data)
            assert arr.tobytes() == ps[name].data.astype("<f8").tobytes()

    def test_header_magic(self, tmp_path):
        path = tmp_path / "params.llns"
        save_params({"x": np.zeros(2)}, path)
        assert path.read_bytes()[:5] == b"LLNS1"

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.llns"
        path.write_bytes(b"NOPE!" + b"\x00" * 16)
        with pytest.raises(FormatError):
            load_params(path)

    @pytest.mark.parametrize("corrupt, message", [
        (lambda data: data + b"\0", "1 bytes after the last parameter"),
        (lambda data: data.replace(b"x", b"\xff"), "can't decode"),
        (lambda data: data.replace(bytes([2] + [0] * 7), bytes([0, 0, 0, 0, 0, 0, 0, 1])),
         "bytes wanted"),
        (lambda data: data[:20], "bytes wanted"),
    ], ids=["trailing-bytes", "name-not-utf8", "dims-beyond-file", "short-header"])
    def test_malformed_file_names_itself(self, tmp_path, corrupt, message):
        path = tmp_path / "params.llns"
        save_params({"x": np.zeros(2)}, path)
        path.write_bytes(corrupt(path.read_bytes()))
        with pytest.raises(FormatError, match=message) as raised:
            load_params(path)
        assert str(raised.value).startswith(f"{path}: ")

    def test_scalar_rank_zero(self, tmp_path):
        path = tmp_path / "scalar.llns"
        save_params({"s": np.float64(3.5)}, path)
        assert load_params(path)["s"] == 3.5
