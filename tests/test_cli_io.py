"""The CLI's table reader and its one JSON writer, checked against the
csv-module parser and the indent=2 writer they replaced."""
import csv
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mtsens.cli
import mtsens.factor
import mtsens.outcome
from mtsens import ConditionalConfounder, GaussianOutcome, save_confounder, save_outcome
from mtsens.cli import _read_table, main
from mtsens.errors import DimensionError, InputFormatError
from mtsens.factor import Table, _finite_or_null, _write_json


def _csv_module_read_table(path):
    """Reference: the csv-module parser with one Python float() per cell."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    names = [c.strip() for c in rows[0]]
    return names, np.array([[float(v) for v in r] for r in rows[1:]], dtype=float)


def _indent2_jsonable(obj):
    if isinstance(obj, Table):
        return [_indent2_jsonable(dict(zip(obj, row))) for row in zip(*obj.values())]
    if isinstance(obj, dict):
        return {k: _indent2_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_indent2_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _indent2_jsonable(obj.tolist())
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        return None if math.isinf(f) or math.isnan(f) else f
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def _indent2_text(payload, provenance):
    """Reference: the indent=2 document the replaced writers produced."""
    doc = _indent2_jsonable(payload)
    if provenance is not None:
        doc = {"_provenance": provenance, **doc}
    return json.dumps(doc, indent=2) + "\n"


# ------------------------------------------------------------------ reader

_NAME = st.text(alphabet="abcxyz_019 ,", min_size=1, max_size=6).filter(
    lambda s: s.strip() != ""
)
_NOTE = st.text(alphabet="abc 01:,#", max_size=12).map(lambda s: "#" + s)


@st.composite
def _tables(draw):
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, 5))
    values = draw(
        st.lists(
            st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=k, max_size=k),
            min_size=n,
            max_size=n,
        )
    )
    # the reader rejects a repeated name, as the header check below tests
    names = draw(st.lists(_NAME, min_size=k, max_size=k, unique_by=str.strip))
    header = ",".join(
        f'"{nm}"' if "," in nm or draw(st.booleans()) else nm for nm in names
    )
    rows = []
    for row in values:
        cells = []
        for v in row:
            style = draw(st.sampled_from(["plain", "quoted", "padded"]))
            text = repr(v)
            cells.append({"plain": text, "quoted": f'"{text}"', "padded": f" {text} "}[style])
        rows.append(",".join(cells))
    extra = st.one_of(_NOTE, st.just(""))
    lines = draw(st.lists(extra, max_size=3)) + [header]
    for row in rows:
        lines += draw(st.lists(extra, max_size=2)) + [row]
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    text = eol.join(lines) + draw(st.sampled_from([eol, ""]))
    return text, values


@settings(max_examples=150, deadline=None)
@given(_tables())
def test_read_table_matches_csv_module_parser(tmp_path_factory, table):
    text, values = table
    path = tmp_path_factory.mktemp("t") / "table.csv"
    path.write_bytes(text.encode("utf-8"))
    names, data = _read_table(path)
    ref_names, ref = _csv_module_read_table(path)
    assert names == ref_names
    assert data.shape == ref.shape == (len(values), len(values[0]))
    assert data.tobytes() == ref.tobytes()


@pytest.mark.parametrize(
    "text",
    [
        "a,b\n1,2\n3\n",
        "a,b\n1,2\n3,4,5\n",
        "a,b,c\n1,2\n3,4\n",
        "a,b\n1,x\n",
        "a,b\n1,2\n3,4,x\n",
        "a,b\n1,\n",
        "a,b\n",
        "# note\na,b\n\n# note\n",
        "",
        "a,b\n1,nan\n",
        "a,b\ninf,2\n",
        "a,b\n1,-inf\n",
        "a,b\n1,2\n3,4#5\n",
        "a,b\n1,2 # note\n",
        "a,b\n1,2\n3,4\n5,6 # trailing note\n7,8\n",
        "a,b\n1,2\n  \n3,4\n",
    ],
)
def test_read_table_rejects_malformed(tmp_path, text):
    path = tmp_path / "bad.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(InputFormatError):
        _read_table(path)


# ------------------------------------------------------------------ writer


def test_json_layout_and_nonfinite_to_null(tmp_path):
    payload = {
        "results": [{"id": "e1", "lower": -math.inf, "upper": np.float64(np.inf)},
                    {"id": "e2", "lower": np.float64(0.5), "upper": np.nan}],
        "gamma": np.array([1.0, np.inf, -0.0]),
        "matrix": [[1.0, 2.0], [3.0, 4.0]],
        "flags": np.array([True, False]),
        "count": np.int64(3),
        "empty": [],
    }
    prov = {"command": "mtsens test", "seed": None}
    path = tmp_path / "out.json"
    _write_json(payload, path, prov)
    text = path.read_text()
    assert json.loads(text) == json.loads(_indent2_text(payload, prov))
    assert json.loads(text)["results"][0]["lower"] is None
    # a key per line, and a record or row per line inside a top-level list
    assert text.splitlines() == [
        "{",
        '"_provenance": {"command": "mtsens test", "seed": null},',
        '"results": [',
        '{"id": "e1", "lower": null, "upper": null},',
        '{"id": "e2", "lower": 0.5, "upper": null}',
        "],",
        '"gamma": [1.0, null, -0.0],',
        '"matrix": [',
        "[1.0, 2.0],",
        "[3.0, 4.0]",
        "],",
        '"flags": [true, false],',
        '"count": 3,',
        '"empty": []',
        "}",
    ]


_SPECIAL_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.5e-310, 1e300,
                   -1e-300, 1e-300, -1.7976931348623157e308, 0.1, 1.0]
_FLOAT = st.one_of(st.sampled_from(_SPECIAL_FLOATS), st.floats())
_PIECES = ['"', "\\", "%", "%s", ", ", '": ', "{", "\u00e9", "\u6f22", "\u2028", "\n", "\x00",
           "a", "e1", " "]
_TEXT = st.lists(st.sampled_from(_PIECES), max_size=4).map("".join)


@st.composite
def _columns(draw, n):
    """One column of n entries, as an array or a list, drawing repeats from a
    small pool so the once-per-distinct-value formatting is exercised."""
    kind = draw(st.sampled_from(["float", "bool", "int", "str", "mixed"]))
    element = {
        "float": _FLOAT,
        "bool": st.booleans(),
        "int": st.integers(-(2**63), 2**63 - 1),
        "str": _TEXT,
        "mixed": st.one_of(st.none(), st.booleans(), st.integers(), _FLOAT, _TEXT),
    }[kind]
    pool = draw(st.lists(element, min_size=1, max_size=4))
    values = [pool[i] for i in draw(st.lists(st.integers(0, len(pool) - 1),
                                             min_size=n, max_size=n))]
    if kind != "mixed" and draw(st.booleans()):
        dtype = {"float": np.float64, "bool": np.bool_, "int": np.int64, "str": str}[kind]
        return np.array(values, dtype=dtype).reshape(n)
    return values


@st.composite
def _json_tables(draw):
    n = draw(st.integers(0, 6))
    names = draw(st.lists(_TEXT, min_size=1, max_size=5, unique=True))
    return Table({name: draw(_columns(n)) for name in names}), n


@settings(max_examples=300, deadline=None)
@given(_json_tables())
def test_table_writes_the_per_record_encoding(tmp_path_factory, drawn):
    table, n = drawn
    records = [{name: col[i] for name, col in table.items()} for i in range(n)]
    # the writer each table replaced: one encode call per record after the walk
    encode = json.JSONEncoder(allow_nan=False).encode
    lines = [encode(_finite_or_null(rec)) for rec in records]
    body = "[\n" + ",\n".join(lines) + "\n]" if lines else "[]"
    expected = '{\n"results": ' + body + "\n}\n"
    path = tmp_path_factory.mktemp("t") / "out.json"
    _write_json({"results": table}, path)
    assert path.read_bytes() == expected.encode("utf-8")
    if records:
        # a list of records is written through the same table path
        _write_json({"results": records}, path)
        assert path.read_bytes() == expected.encode("utf-8")


@pytest.mark.parametrize(
    "value, error",
    [
        (Table(a=np.zeros(2), b=np.zeros(3)), DimensionError),
        (Table(a=np.zeros((2, 2))), DimensionError),
    ],
)
def test_malformed_tables_raise(tmp_path, value, error):
    with pytest.raises(error):
        _write_json({"results": value}, tmp_path / "out.json")


def test_json_nan_past_the_walk_raises(tmp_path, monkeypatch):
    monkeypatch.setattr(mtsens.factor, "_finite_or_null", lambda obj: obj)
    with pytest.raises(ValueError):
        _write_json({"x": [float("nan")]}, tmp_path / "out.json")


@st.composite
def _float_arrays(draw):
    """A 1-d or 2-d float array, empty ones included, drawing repeats from a
    small pool of _FLOAT values (+-inf, NaN, -0.0, subnormals, 1e+-300);
    2-d arrays are sometimes transposed views."""
    shape = tuple(draw(st.lists(st.integers(0, 4), min_size=1, max_size=2)))
    pool = draw(st.lists(_FLOAT, min_size=1, max_size=4))
    size = math.prod(shape)
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=size, max_size=size))
    a = np.array([pool[i] for i in picks], dtype=float).reshape(shape)
    return a.T if a.ndim == 2 and draw(st.booleans()) else a


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(_TEXT, st.one_of(_float_arrays(), _FLOAT), min_size=1, max_size=4))
def test_float_arrays_write_as_their_lists(tmp_path_factory, payload):
    # model files pass their arrays as they are; the text must be that of
    # the arrays' .tolist() through the walk
    listed = {key: v.tolist() if isinstance(v, np.ndarray) else v
              for key, v in payload.items()}
    root = tmp_path_factory.mktemp("j")
    prov = {"command": "mtsens test", "seed": None}
    _write_json(payload, root / "arrays.json", prov)
    _write_json(listed, root / "lists.json", prov)
    assert (root / "arrays.json").read_bytes() == (root / "lists.json").read_bytes()


def _bits(a) -> bytes:
    return np.asarray(a, dtype=np.float64).tobytes()


def test_model_files_round_trip_arrays_bit_for_bit(tmp_path):
    data = mtsens.gen_gwas(n=300, k=12, m=3, seed=4)
    tm, y = data.treatments, data.y
    fm = mtsens.fit_ppca(tm, 3)
    # awkward means: -0.0, a subnormal and 1e+-300 must come back as they went
    fm = mtsens.FactorModel(
        b_hat=fm.b_hat, sigma2_t_given_u=fm.sigma2_t_given_u, m=3,
        singular_values=fm.singular_values,
        treatment_means=np.r_[-0.0, 5e-324, 1e300, -1e-300, fm.treatment_means[4:]],
    )
    mtsens.save_factor_model(fm, tmp_path / "fm.json")
    back = mtsens.load_factor_model(tmp_path / "fm.json")
    for name in ("b_hat", "singular_values", "treatment_means"):
        assert _bits(getattr(back, name)) == _bits(getattr(fm, name)), name
    assert back.sigma2_t_given_u == fm.sigma2_t_given_u

    cc = mtsens.conditional_confounder(fm)
    save_confounder(cc, tmp_path / "cc.json")
    back = mtsens.load_confounder(tmp_path / "cc.json")
    for name in ("coef", "sigma_u_given_t", "treatment_means"):
        assert _bits(getattr(back, name)) == _bits(getattr(cc, name)), name

    outcomes = {
        "gaussian": (mtsens.fit_linear(tm, y), ("tau_naive",)),
        "probit": (mtsens.fit_probit(tm, (y > np.median(y)).astype(float)), ("probit_coef",)),
        "empirical": (mtsens.fit_empirical(tm, y, degree=2), ("residual_quantiles",)),
    }
    for kind, (model, arrays) in outcomes.items():
        save_outcome(model, tmp_path / f"{kind}.json")
        back = mtsens.load_outcome(tmp_path / f"{kind}.json")
        for name in arrays:
            assert _bits(getattr(back, name)) == _bits(getattr(model, name)), (kind, name)
        if kind == "empirical":
            assert _bits(back.mean_fn.coef) == _bits(model.mean_fn.coef)


@pytest.fixture
def recorded_writes(monkeypatch):
    """Every _write_json call of the CLI and the model savers, with the
    document the indent=2 writer would have produced for it."""
    calls = []
    real = mtsens.factor._write_json

    def recording(payload, path, provenance=None):
        calls.append((path, _indent2_text(payload, provenance)))
        real(payload, path, provenance)

    for module in (mtsens.cli, mtsens.factor, mtsens.outcome):
        monkeypatch.setattr(module, "_write_json", recording)
    return calls


def _assert_same_documents(calls, stdout_docs):
    stdout_docs = list(stdout_docs)
    for path, reference in calls:
        if path in (None, "-"):
            text = stdout_docs.pop(0)
        else:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        assert json.loads(text) == json.loads(reference), path
    assert not stdout_docs


def test_cli_outputs_equal_indent2_documents(tmp_path, capsys, recorded_writes):
    data = tmp_path / "data"
    models = tmp_path / "models"
    argvs = [
        ["simulate", "--preset", "gwas", "--seed", "4", "--n", "120", "--k", "10",
         "--out-dir", str(data)],
        ["fit", "--treatments", str(data / "gwas_data.csv"), "--outcome", "y", "--m", "2",
         "--out-dir", str(models)],
        ["bounds", "--models", str(models), "--all-unitwise", "--r2", "0:1:3",
         "--out", str(tmp_path / "bounds.json")],
        ["rv", "--models", str(models), "--all-unitwise", "--out", str(tmp_path / "rv.json")],
        ["mcc", "--models", str(models), "--treatments", str(data / "gwas_data.csv"),
         "--outcome", "y", "--norm", "l1", "--out-dir", str(tmp_path / "mcc")],
        ["fit", "--treatments", str(data / "gwas_data.csv"), "--outcome", "y", "--m", "2",
         "--outcome-kind", "empirical", "--out-dir", str(tmp_path / "emp")],
    ]
    for argv in argvs:
        assert main(argv) == 0, argv
    rng = np.random.default_rng(2)
    z = rng.normal(size=300)
    t = z + rng.normal(size=300)
    y = t + z + rng.normal(size=300)
    proxy_csv = tmp_path / "proxy.csv"
    rows = np.column_stack([y, t, z]).tolist()
    proxy_csv.write_text("y,t,z\n" + "".join(f"{a!r},{b!r},{c!r}\n" for a, b, c in rows))
    capsys.readouterr()
    assert main(["proxy", "--data", str(proxy_csv), "--sigma-u2", "0.9,1", "--out", "-"]) == 0
    stdout_docs = [capsys.readouterr().out]
    kinds = {os.path.basename(path) for path, _ in recorded_writes if path != "-"}
    assert {"gwas_truth.json", "factor_model.json", "confounder.json", "outcome.json",
            "bounds.json", "rv.json", "mcc_summary.json"} <= kinds
    _assert_same_documents(recorded_writes, stdout_docs)


def test_unbounded_region_writes_null_endpoints(tmp_path, capsys, recorded_writes):
    # a singular Sigma_{u|t} whose null direction the contrast moves along
    models = tmp_path / "models"
    models.mkdir()
    cc = ConditionalConfounder(
        coef=np.array([[0.3, 0.1, 0.0], [0.0, 0.5, 0.2]]),
        sigma_u_given_t=np.diag([0.4, 0.0]),
    )
    save_confounder(cc, models / "confounder.json", {"made": "by hand"})
    save_outcome(GaussianOutcome(np.array([1.0, 2.0, 3.0]), 0.5, 1.5),
                 models / "outcome.json", {"made": "by hand"})
    del recorded_writes[:]
    capsys.readouterr()
    argv = ["bounds", "--models", str(models), "--contrast", "e2", "--r2", "0,0.5,1"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    records = json.loads(out)["results"]
    # unbounded at every cap, r2 = 0 included
    assert [rec["r2_cap"] for rec in records] == [0.0, 0.5, 1.0]
    for rec in records:
        assert rec["bounded"] is False
        assert rec["lower"] is None and rec["upper"] is None
    _assert_same_documents(recorded_writes, [out])
