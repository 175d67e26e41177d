"""TNSR container round trips and corruption handling, PPM/colormap output,
the synthetic dataset generator, and dataset directory loading."""

import struct
import zlib

import numpy as np
import pytest

import tfcns.data as D
from tfcns.errors import ConfigInvalid, DatasetError, FormatError, VersionError


class TestTensorFile:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.uint8, np.int32])
    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_round_trip_identity(self, dtype, rank, rng, tmp_path):
        shape = tuple(rng.integers(1, 5, size=rank))
        if np.issubdtype(dtype, np.floating):
            arr = rng.standard_normal(shape).astype(dtype)
        else:
            arr = rng.integers(0, 200, size=shape).astype(dtype)
        path = tmp_path / "t.tnsr"
        D.write_tensor(path, arr)
        back = D.read_tensor(path)
        assert back.dtype == arr.dtype
        assert np.array_equal(back, arr)

    def test_u8_mask_preserves_labels(self, rng, tmp_path):
        mask = rng.integers(0, 7, size=(9, 9)).astype(np.uint8)
        D.write_tensor(tmp_path / "m.tnsr", mask)
        assert np.array_equal(D.read_tensor(tmp_path / "m.tnsr"), mask)

    def test_truncated_file(self, rng, tmp_path):
        path = tmp_path / "t.tnsr"
        D.write_tensor(path, rng.standard_normal((4, 4)).astype(np.float32))
        blob = path.read_bytes()
        path.write_bytes(blob[:-7])
        with pytest.raises(FormatError):
            D.read_tensor(path)

    def test_crc_corruption(self, rng, tmp_path):
        path = tmp_path / "t.tnsr"
        D.write_tensor(path, rng.standard_normal((4, 4)).astype(np.float32))
        blob = bytearray(path.read_bytes())
        blob[20] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            D.read_tensor(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "t.tnsr"
        path.write_bytes(b"NOPE" + bytes(20))
        with pytest.raises(FormatError):
            D.read_tensor(path)

    def test_version_mismatch(self, rng, tmp_path):
        path = tmp_path / "t.tnsr"
        D.write_tensor(path, np.zeros(3, dtype=np.float32))
        blob = bytearray(path.read_bytes())
        blob[4] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(VersionError) as exc:
            D.read_tensor(path)
        assert "99" in str(exc.value) and "1" in str(exc.value)

    @pytest.mark.parametrize("arr, golden", [
        (np.arange(6, dtype=np.float32).reshape(2, 3) - 1.5,
         b"TNSR\x01\x00\x00\x02"                      # magic, version 1, float32, rank 2
         b"\x02\x00\x00\x00\x03\x00\x00\x00"          # dims 2, 3
         b"\x00\x00\xc0\xbf\x00\x00\x00\xbf\x00\x00\x00\x3f"  # -1.5, -0.5, 0.5
         b"\x00\x00\xc0\x3f\x00\x00\x20\x40\x00\x00\x60\x40"  # 1.5, 2.5, 3.5
         b"\xdb\x90\x54\x24"),                         # CRC32 of the payload
        (np.array(2.5, dtype=np.float32),
         b"TNSR\x01\x00\x00\x00"                      # magic, version 1, float32, rank 0
         b"\x00\x00\x20\x40"                          # 2.5
         b"\x2e\xba\x1c\xc2"),                         # CRC32 of the payload
    ], ids=["f32_2x3", "f32_scalar"])
    def test_layout_golden_bytes(self, arr, golden, tmp_path):
        D.write_tensor(tmp_path / "g.tnsr", arr)
        assert (tmp_path / "g.tnsr").read_bytes() == golden
        back = D.read_tensor(tmp_path / "g.tnsr")
        assert back.shape == arr.shape and np.array_equal(back, arr)

    def test_dims_whose_product_wraps_int64_are_a_truncated_payload(self, tmp_path):
        # 65536**4 == 2**64: a product in int64 wraps to 0 and sizes the record as empty
        path = tmp_path / "t.tnsr"
        path.write_bytes(b"TNSR" + struct.pack("<HBB4I", 1, 0, 4, *[65536] * 4) + struct.pack("<I", zlib.crc32(b"")))
        with pytest.raises(FormatError, match="truncated payload"):
            D.read_tensor(path)

    def test_rank_beyond_numpy_limit_is_format_error(self, tmp_path):
        path = tmp_path / "t.tnsr"
        payload = bytes(4)  # one float32 element, every one of the 65 dims 1
        path.write_bytes(b"TNSR" + struct.pack("<HBB65I", 1, 0, 65, *[1] * 65) + payload
                         + struct.pack("<I", zlib.crc32(payload)))
        with pytest.raises(FormatError, match="dimension"):
            D.read_tensor(path)

    def test_writer_is_byte_deterministic(self, rng, tmp_path):
        arr = rng.standard_normal((3, 5)).astype(np.float64)
        D.write_tensor(tmp_path / "a.tnsr", arr)
        D.write_tensor(tmp_path / "b.tnsr", arr)
        assert (tmp_path / "a.tnsr").read_bytes() == (tmp_path / "b.tnsr").read_bytes()


class TestImages:
    def test_checkerboard_ppm_bytes(self, tmp_path):
        mask = np.array([[0, 1], [1, 0]])
        path = tmp_path / "m.ppm"
        D.write_mask_image(path, mask)
        blob = path.read_bytes()
        header = b"P6\n2 2\n255\n"
        assert blob.startswith(header)
        payload = blob[len(header):]
        assert len(payload) == 12
        background, one = D.MASK_PALETTE[0], D.MASK_PALETTE[1]
        assert payload == bytes(background + one + one + background)

    def test_heatmap_zeros_map_to_lowest_entry(self, tmp_path):
        path = tmp_path / "h.ppm"
        D.write_heatmap(path, np.zeros((2, 3)))
        payload = path.read_bytes().split(b"\n255\n", 1)[1]
        assert payload == bytes(D.HEAT_COLORMAP[0]) * 6

    def test_colormap_endpoints(self):
        assert D.HEAT_COLORMAP[0] == (0, 0, 255)
        assert D.HEAT_COLORMAP[255] == (255, 0, 0)
        assert len(D.HEAT_COLORMAP) == 256

    def test_overlay_threshold_one_is_fully_zeroed(self, rng, tmp_path):
        heat = rng.random((4, 4))
        path = tmp_path / "o.ppm"
        D.write_cam_overlay(path, heat, threshold=1.0)
        payload = path.read_bytes().split(b"\n255\n", 1)[1]
        assert payload == bytes(48)

    def test_overlay_threshold_zero_marks_positive_heat(self, tmp_path):
        heat = np.array([[0.0, 0.6], [0.3, 0.0]])
        path = tmp_path / "o.ppm"
        D.write_cam_overlay(path, heat, threshold=0.0)
        payload = path.read_bytes().split(b"\n255\n", 1)[1]
        pixels = [tuple(payload[i:i + 3]) for i in range(0, 12, 3)]
        assert pixels[0] == (0, 0, 0) and pixels[3] == (0, 0, 0)
        assert pixels[1] == D.HEAT_COLORMAP[int(round(0.6 * 255))]
        assert pixels[2] == D.HEAT_COLORMAP[int(round(0.3 * 255))]


class TestSyntheticDataset:
    def test_zero_noise_gives_exact_class_intensities(self):
        spec = D.SyntheticSpec(n_cases=3, height=32, width=32, num_classes=4,
                               noise_sigma=0.0, seed=5)
        for pair in D.generate_synthetic(spec):
            levels = pair.image[0]
            for c in range(4):
                sel = pair.mask == c
                if sel.any():
                    assert np.allclose(levels[sel], D.class_intensity(c, 4), atol=1e-7)

    def test_deterministic_per_seed(self):
        spec = D.SyntheticSpec(n_cases=4, seed=9)
        a = D.generate_synthetic(spec)
        b = D.generate_synthetic(spec)
        for pa, pb in zip(a, b):
            assert np.array_equal(pa.image, pb.image)
            assert np.array_equal(pa.mask, pb.mask)

    def test_every_class_present_and_labels_bounded(self):
        spec = D.SyntheticSpec(n_cases=6, num_classes=4, seed=3)
        pairs = D.generate_synthetic(spec)
        seen = set()
        for pair in pairs:
            seen.update(np.unique(pair.mask).tolist())
            assert pair.mask.max() < 4 and pair.mask.min() >= 0
        assert seen == {0, 1, 2, 3}

    def test_class_areas_within_analytic_bounds(self):
        spec = D.SyntheticSpec(n_cases=8, height=32, width=32, num_classes=4,
                               seed=11, radius_min=3, radius_max=5)
        r0, r1 = spec.radius_min, spec.radius_max
        bounds = {
            1: (np.pi * (r0 - 0.5) ** 2, np.pi * (r1 + 0.5) ** 2),          # disk
            2: ((2 * r0 + 1) ** 2, (2 * r1 + 1) ** 2),                      # square
            3: (np.pi * ((r0 - 0.5) ** 2 - (r0 / 2 + 0.5) ** 2),            # ring
                np.pi * ((r1 + 0.5) ** 2 - 0.25)),
        }
        for pair in D.generate_synthetic(spec):
            for c, (lo, hi) in bounds.items():
                area = int((pair.mask == c).sum())
                assert lo <= area <= hi, (c, area, lo, hi)

    def test_oversized_radius_rejected(self):
        with pytest.raises(ConfigInvalid):
            D.generate_synthetic(D.SyntheticSpec(height=16, width=16, num_classes=4,
                                                 radius_max=8))


class TestDatasetDirectory:
    def test_save_load_round_trip(self, tmp_path):
        pairs = D.generate_synthetic(D.SyntheticSpec(n_cases=3, seed=1))
        D.save_dataset(tmp_path, pairs)
        back = D.load_dataset(tmp_path)
        assert [p.case_id for p in back] == [p.case_id for p in pairs]
        for a, b in zip(pairs, back):
            assert np.array_equal(a.image, b.image)
            assert np.array_equal(a.mask, b.mask)

    def test_orphan_mask_is_an_error_naming_the_file(self, tmp_path):
        D.write_tensor(tmp_path / "c1.img.tnsr", np.zeros((1, 4, 4), dtype=np.float32))
        D.write_tensor(tmp_path / "c1.msk.tnsr", np.zeros((4, 4), dtype=np.int32))
        D.write_tensor(tmp_path / "stray.msk.tnsr", np.zeros((4, 4), dtype=np.int32))
        with pytest.raises(DatasetError) as exc:
            D.load_dataset(tmp_path)
        assert "stray.msk.tnsr" in str(exc.value)

    def test_missing_directory(self, tmp_path):
        with pytest.raises(DatasetError):
            D.load_dataset(tmp_path / "nope")

    @pytest.mark.parametrize("value", [np.nan, 2.7], ids=["nan", "fraction"])
    def test_float_mask_is_an_error_naming_the_file(self, value, tmp_path):
        D.write_tensor(tmp_path / "c1.img.tnsr", np.zeros((1, 4, 4), dtype=np.float32))
        D.write_tensor(tmp_path / "c1.msk.tnsr", np.full((4, 4), value, dtype=np.float32))
        with pytest.raises(DatasetError, match="c1.msk.tnsr"):
            D.load_dataset(tmp_path)

    def test_nan_image_is_an_error_naming_the_file(self, tmp_path):
        image = np.zeros((1, 4, 4), dtype=np.float32)
        image[0, 1, 2] = np.nan
        D.write_tensor(tmp_path / "c1.img.tnsr", image)
        D.write_tensor(tmp_path / "c1.msk.tnsr", np.zeros((4, 4), dtype=np.int32))
        with pytest.raises(FormatError, match="c1.img.tnsr"):
            D.load_dataset(tmp_path)

    def test_u8_mask_loads_as_int32(self, tmp_path):
        D.write_tensor(tmp_path / "c1.img.tnsr", np.zeros((1, 4, 4), dtype=np.float32))
        D.write_tensor(tmp_path / "c1.msk.tnsr", np.full((4, 4), 3, dtype=np.uint8))
        (pair,) = D.load_dataset(tmp_path)
        assert pair.mask.dtype == np.int32 and np.all(pair.mask == 3)
