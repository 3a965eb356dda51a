import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import stats

from _helpers import mixture_marginal, mixture_pdf, mixture_true_ratio, reference_load_csv
from pushift.data import (
    GaussianMixtureSpec,
    PUDataset,
    SplitDataset,
    case1_mixture,
    case2_mixture,
    load_csv,
    save_csv,
    synth_case1,
    synth_from_mixture,
    synth_gaussian_pair,
)
from pushift.errors import ConfigError, DataError

KS_CRITICAL_1PCT = 1.6276  # asymptotic one-sample Kolmogorov-Smirnov, alpha = 0.01


def mixture_cdf(comps):
    """CDF of a Gaussian mixture given as (mean, variance, weight) triples."""
    return lambda x: sum(w * stats.norm.cdf(x, loc=m, scale=np.sqrt(v)) for m, v, w in comps)


def marginal_cdf(mix, prior):
    pos, neg = mixture_cdf(mix.components_pos), mixture_cdf(mix.components_neg)
    return lambda x: prior * pos(x) + (1.0 - prior) * neg(x)


class TestSyntheticGenerators:
    def test_seed_determinism(self):
        a = synth_case1(50, 200, 0.4, 123)
        b = synth_case1(50, 200, 0.4, 123)
        np.testing.assert_array_equal(a.positives, b.positives)
        np.testing.assert_array_equal(a.unlabeled, b.unlabeled)
        np.testing.assert_array_equal(a.hidden_labels, b.hidden_labels)
        c = synth_case1(50, 200, 0.4, 124)
        assert not np.array_equal(a.positives, c.positives)

    def test_positive_mean_concentrates(self):
        ds = synth_case1(4000, 10, 0.4, 0)
        assert abs(ds.positives.mean() - 1.0) < 3.0 / np.sqrt(4000)

    def test_counts_and_dim(self):
        ds = synth_case1(30, 70, 0.4, 1)
        assert ds.n_pos == 30 and ds.n_unl == 70 and ds.dim == 1
        assert ds.hidden_labels.shape == (70,)

    def test_invalid_args(self):
        with pytest.raises(ConfigError):
            synth_case1(0, 10, 0.4, 0)
        with pytest.raises(ConfigError):
            synth_case1(10, 10, 1.2, 0)
        with pytest.raises(ConfigError):
            synth_gaussian_pair(3, 0, 10, 0.4, 0)
        with pytest.raises(ConfigError):
            synth_gaussian_pair(3, 10, 10, 1.0, 0)

    @pytest.mark.parametrize("case,mix_fn,prior", [(1, case1_mixture, 0.4), (2, case2_mixture, 0.6)])
    def test_marginals_pass_ks(self, case, mix_fn, prior):
        """Sampled positives and unlabeled match the analytic CDFs."""
        n = 10_000
        mix = mix_fn()
        ds = synth_from_mixture(mix, n, n, prior, 42)
        crit = KS_CRITICAL_1PCT / np.sqrt(n)
        ks_pos = stats.kstest(ds.positives.ravel(), mixture_cdf(mix.components_pos)).statistic
        ks_unl = stats.kstest(ds.unlabeled.ravel(), marginal_cdf(mix, prior)).statistic
        assert ks_pos < crit
        assert ks_unl < crit

    def test_gaussian_pair_shapes_and_prior(self):
        ds = synth_gaussian_pair(10, 200, 5000, 0.3, 7)
        assert ds.positives.shape == (200, 10)
        assert ds.unlabeled.shape == (5000, 10)
        frac = np.mean(ds.hidden_labels == 1)
        assert abs(frac - 0.3) < 3 * np.sqrt(0.3 * 0.7 / 5000)


def _grid_infimum_ratio(mix, prior):
    """Fine-grid infimum of p(x) / p_pos(x), the max-mixture proportion kappa."""
    x = np.linspace(-12.0, 12.0, 200001)
    return float(np.min(mixture_marginal(mix, x, prior) / mixture_pdf(mix.components_pos, x)))


class TestMixtureSpec:
    def test_case2_max_mixture_closed_form(self):
        mix = case2_mixture()
        assert _grid_infimum_ratio(mix, 0.6) == pytest.approx(0.6 + 0.4 * 0.2 / 0.8, abs=1e-6)

    def test_case1_identifiable(self):
        mix = case1_mixture()
        assert _grid_infimum_ratio(mix, 0.4) == pytest.approx(0.4, abs=1e-3)

    def test_validation(self):
        with pytest.raises(ConfigError):
            GaussianMixtureSpec([(0, 1, 0.5)], [(0, 1, 1.0)])
        with pytest.raises(ConfigError):
            GaussianMixtureSpec([(0, -1, 1.0)], [(0, 1, 1.0)])

    def test_true_ratio_matches_posterior_scaling(self):
        """prior * true_ratio(x, prior) is the posterior P(y = +1 | x), built here from scipy's normal density."""
        x = np.linspace(-4, 4, 101)
        up, down = stats.norm.pdf(x, loc=1.0), stats.norm.pdf(x, loc=-1.0)
        for mix, w in ((case1_mixture(), 1.0), (case2_mixture(), 0.8)):  # weight of N(+1, 1) in p_pos
            p_pos, p_neg = w * up + (1 - w) * down, (1 - w) * up + w * down
            for prior in (0.4, 0.6):
                eta = prior * mixture_true_ratio(mix, x, prior)
                np.testing.assert_allclose(eta, prior * p_pos / (prior * p_pos + (1 - prior) * p_neg), rtol=1e-12)


def _row_loop_save_csv(path, X, labels=None):
    """The former row-by-row ``save_csv``, kept as the byte oracle for the list-based writer."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    with open(path, "w") as fh:
        for i in range(X.shape[0]):
            row = [repr(float(v)) for v in X[i]]
            if labels is not None:
                row.append(str(int(labels[i])))
            fh.write(",".join(row) + "\n")


class TestCsv:
    @pytest.mark.parametrize("labeled", [False, True])
    def test_writer_bytes_match_row_loop(self, tmp_path, labeled):
        """Special values and labels, over more rows than one 4096-row block."""
        rng = np.random.default_rng(8)
        X = np.vstack([[-0.0, 5e-324, 1e300], [1 / 3, -1e-300, 2.0], rng.normal(size=(9000, 3))])
        labels = rng.choice([-1, 1], size=X.shape[0]) if labeled else None
        save_csv(tmp_path / "new.csv", X, labels=labels)
        _row_loop_save_csv(tmp_path / "old.csv", X, labels=labels)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_labeled_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(3, 4))
        y = np.array([1, -1, 1])
        path = tmp_path / "data.csv"
        save_csv(path, X, labels=y)
        X2, y2 = load_csv(path, labeled=True)
        np.testing.assert_array_equal(X, X2)
        np.testing.assert_array_equal(y, y2)

    def test_unlabeled_round_trip(self, tmp_path):
        X = np.random.default_rng(6).normal(size=(5, 2))
        path = tmp_path / "u.csv"
        save_csv(path, X)
        X2, y2 = load_csv(path, labeled=False)
        np.testing.assert_array_equal(X, X2)
        assert y2 is None

    def test_header_detected_and_skipped(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("x0,x1,label\n0.5,1.5,1\n0.1,-0.2,-1\n")
        X, y = load_csv(path, labeled=True)
        assert X.shape == (2, 2)
        np.testing.assert_array_equal(y, [1, -1])

    def test_ragged_row_names_index(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(DataError, match="line 2"):
            load_csv(path, labeled=False)

    def test_non_numeric_cell_located(self, tmp_path):
        path = tmp_path / "n.csv"
        path.write_text("1.0,2.0\n3.0,oops\n")
        with pytest.raises(DataError, match="line 2, column 2"):
            load_csv(path, labeled=False)

    @pytest.mark.parametrize(
        "text, labeled, message",
        [
            ("1.0\n\n2.0\n\n\ninf\n3.0\n", False, "non-finite value or squared norm at line 6"),
            ("x\n1.0\n\n2.0\nnan\n", False, "non-finite value or squared norm at line 5"),
            ("1.0,1\n\n2.0,1\n3.0,0\n", True, "label at line 4 is not"),
            ("\n1.0\n  \n2.0\n\n1e308\n", False, "non-finite value or squared norm at line 6"),
            ("x,y\n\n1,2\n3\n", False, "ragged line 4 has 1 cells"),
            ("\n\nx,y\r\n\r\n1,2\r\n  \r\n3,oops\r\n", False, "non-numeric cell at line 7, column 2"),
        ],
        ids=["blank-lines", "header", "label", "blank-with-spaces", "ragged", "crlf-and-leading-blanks"],
    )
    def test_faults_name_the_file_line(self, tmp_path, text, labeled, message):
        """The number is the line an editor shows: blank lines and the header count, from 1."""
        path = tmp_path / "f.csv"
        path.write_bytes(text.encode())
        with pytest.raises(DataError, match=message):
            load_csv(path, labeled=labeled)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("")
        with pytest.raises(DataError, match="empty"):
            load_csv(path, labeled=False)

    def test_forced_unlabeled_interpretation(self, tmp_path):
        # a last column of +-1 values is data, not labels, in an unlabeled file
        path = tmp_path / "pm.csv"
        path.write_text("1.0\n-1.0\n1.0\n")
        X, y = load_csv(path, labeled=False)
        assert X.shape == (3, 1) and y is None
        path.write_text("0.5,1\n0.25,-1\n")
        X, y = load_csv(path, labeled=False)
        np.testing.assert_array_equal(X, [[0.5, 1.0], [0.25, -1.0]])
        assert y is None

    def test_labeled_file_needs_plus_or_minus_one_labels(self, tmp_path):
        path = tmp_path / "l.csv"
        path.write_text("x,label\n0.5,1\n0.25,-1\n0.75,0\n")
        with pytest.raises(DataError, match="label at line 4 is not"):
            load_csv(path, labeled=True)
        path.write_text("1\n-1\n")
        with pytest.raises(DataError, match="at least one feature column"):
            load_csv(path, labeled=True)

    @pytest.mark.parametrize("n_labels", [2, 5])
    def test_label_count_must_match_the_rows(self, tmp_path, n_labels):
        """``zip`` would write 2 of 3 rows, or drop 2 of 5 labels, without a word."""
        path = tmp_path / "l.csv"
        with pytest.raises(DataError, match=f"{n_labels} labels for 3 rows"):
            save_csv(path, np.zeros((3, 2)), labels=np.ones(n_labels, dtype=int))
        assert not path.exists()

    @pytest.mark.parametrize("labeled", [True, False])
    def test_byte_order_mark_is_not_data(self, tmp_path, labeled):
        """A UTF-8 byte-order mark made the first row a header, so a 3-row file read as 2 rows."""
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf0.5,1\n0.25,-1\n0.75,1\n")
        X, y = load_csv(path, labeled=labeled)
        if labeled:
            np.testing.assert_array_equal(X, [[0.5], [0.25], [0.75]])
            np.testing.assert_array_equal(y, [1, -1, 1])
        else:
            np.testing.assert_array_equal(X, [[0.5, 1.0], [0.25, -1.0], [0.75, 1.0]])
            assert y is None

    def test_undecodable_bytes_are_a_data_error(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_bytes(b"1.0,2.0\n\xff\xfe,3.0\n")
        with pytest.raises(DataError):
            load_csv(path, labeled=False)


def _load_outcome(path, labeled):
    """``load_csv``'s shape, X bytes and labels, or its ``DataError`` message, as ``reference_load_csv`` gives them."""
    try:
        X, y = load_csv(path, labeled=labeled)
    except DataError as exc:
        return "error", str(exc)
    return "ok", X.shape, X.tobytes(), None if y is None else y.tolist()


@pytest.fixture
def loadtxt_calls(monkeypatch):
    """Every ``np.loadtxt`` call from here on, as ``[result or None]``: None for a call that raised."""
    calls, loadtxt = [], np.loadtxt

    def spy(*args, **kwargs):
        calls.append(None)
        calls[-1] = loadtxt(*args, **kwargs)
        return calls[-1]

    monkeypatch.setattr(np, "loadtxt", spy)
    return calls


# Cells that ``np.loadtxt`` reads, cells only Python's ``float`` reads, and cells neither reads.
csv_cells = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-(10**20), 10**20).map(str),
    st.sampled_from(["1", "-1", "+1", "0", "-0", ".5", "5.", "1e5", "1E+05", "2.5e-3", "1e400", "1e-400"]),
    st.sampled_from(["nan", "NaN", "-inf", "Infinity", "1_000", "\u0663", "#", "# 1", "abc", "", "0x10"]),
    st.from_regex(r"-?[0-9]{1,20}\.[0-9]{0,20}(e-?[0-9]{1,3})?", fullmatch=True),
)
padded_cells = st.tuples(st.sampled_from(["", " ", "\t"]), csv_cells, st.sampled_from(["", " ", "  "])).map("".join)
csv_rows = st.lists(padded_cells, min_size=1, max_size=4).map(",".join)
csv_lines = st.lists(
    st.one_of(csv_rows, csv_rows, csv_rows, csv_rows.map(lambda r: r + ","), st.sampled_from(["", "   "])), max_size=4
)


class TestOneGrammar:
    """``load_csv`` takes every number from ``np.loadtxt``; a cell it refuses is a fault, named by line and column."""

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(header=st.sampled_from([None, "x0,x1", "a"]), lines=csv_lines, newline=st.sampled_from(["\n", "\r\n"]),
           width=st.integers(1, 3), labels=st.booleans(), n_rows=st.integers(0, 6), labeled=st.booleans())
    def test_agrees_with_the_loadtxt_oracle(self, tmp_path, header, lines, newline, width, labels, n_rows, labeled):
        """On any text, ``load_csv`` gives the oracle's array or its DataError, bit for bit and word for word."""
        rng = np.random.default_rng(len(lines) + n_rows)
        regular = [",".join(repr(float(v)) for v in rng.normal(size=width)) for _ in range(n_rows)]
        if labels:
            regular = [r + "," + str(rng.choice([-1, 1])) for r in regular]
        text = newline.join(([header] if header else []) + regular + lines)
        path = tmp_path / "p.csv"
        path.write_text(text)
        assert _load_outcome(path, labeled) == reference_load_csv(path, labeled)

    @pytest.mark.parametrize("labeled", [False, True])
    def test_save_csv_file_costs_one_loadtxt_call(self, tmp_path, loadtxt_calls, labeled):
        """The path every file ``save_csv`` writes takes, the benchmark's inputs included."""
        rng = np.random.default_rng(3)
        X = rng.normal(size=(300, 2))
        save_csv(tmp_path / "s.csv", X, labels=rng.choice([-1, 1], size=300) if labeled else None)
        got, _ = load_csv(tmp_path / "s.csv", labeled=labeled)
        np.testing.assert_array_equal(got, X)
        assert len(loadtxt_calls) == 1 and np.shares_memory(got, loadtxt_calls[0])

    @pytest.mark.parametrize("labeled", [False, True])
    def test_whitespace_only_line_reads_what_loadtxt_returned(self, tmp_path, loadtxt_calls, labeled):
        """``np.loadtxt`` refuses a ``"   "`` line, so the stripped non-blank lines go to it once more; the
        row-by-row ``float`` parser they went to instead read a 20 000-row file about 4x slower."""
        rng = np.random.default_rng(4)
        X = rng.normal(size=(300, 2))
        path = tmp_path / "w.csv"
        save_csv(path, X, labels=rng.choice([-1, 1], size=300) if labeled else None)
        path.write_text(path.read_text() + "   \n")
        got, _ = load_csv(path, labeled=labeled)
        np.testing.assert_array_equal(got, X)
        assert len(loadtxt_calls) == 2 and loadtxt_calls[0] is None and np.shares_memory(got, loadtxt_calls[1])

    @pytest.mark.parametrize("cell", ["1_000", "\u0663", "\uff11"])
    def test_cell_only_python_reads_is_a_fault(self, tmp_path, cell):
        """Python's ``float`` reads an underscore and non-ASCII digits; ``np.loadtxt`` does not."""
        path = tmp_path / "c.csv"
        path.write_text(f"1.0,2.0\n\n3.0,{cell}\n")
        with pytest.raises(DataError, match="non-numeric cell at line 3, column 2"):
            load_csv(path, labeled=False)

    @pytest.mark.parametrize("line", [1, 1024, 1025, 2048, 2049, 3000])
    def test_fault_in_a_later_block_of_lines(self, tmp_path, line):
        """The locator reads 1024 lines per ``np.loadtxt`` call until one is refused, then that block line by line."""
        X = np.random.default_rng(line).normal(size=(3000, 2))
        path = tmp_path / "b.csv"
        save_csv(path, X)
        lines = path.read_text().splitlines(keepends=True)
        lines[line - 1] = lines[line - 1].split(",")[0] + ",1_000\n"
        path.write_text("\n\n" + "".join(lines))  # two blank lines before the data
        assert _load_outcome(path, False) == reference_load_csv(path, False)
        assert _load_outcome(path, False)[1].endswith(f"non-numeric cell at line {line + 2}, column 2")

    def test_first_line_python_reads_is_data_not_a_header(self, tmp_path):
        """The header rule keeps Python's ``float``, so a line it reads as numbers is never dropped silently."""
        path = tmp_path / "h.csv"
        path.write_text("1_000,2\n3,4\n")
        with pytest.raises(DataError, match="non-numeric cell at line 1, column 1"):
            load_csv(path, labeled=False)


class TestPUDatasetValidation:
    def test_dimension_mismatch(self):
        with pytest.raises(DataError):
            PUDataset(np.zeros((3, 2)), np.zeros((4, 3)))

    def test_hidden_label_length(self):
        with pytest.raises(DataError):
            PUDataset(np.zeros((3, 2)), np.zeros((4, 2)), hidden_labels=np.ones(3))

    def test_split_width_mismatch(self):
        """A split is refused when it is built, so no training loop starts on it."""
        train = PUDataset(np.zeros((3, 1)), np.zeros((4, 1)))
        with pytest.raises(DataError, match="training data are 1-d, validation data are 2-d"):
            SplitDataset(train=train, val=PUDataset(np.zeros((3, 2)), np.zeros((4, 2))))
