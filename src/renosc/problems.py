"""Declarative problem construction: coefficient expressions, configs, catalog.

Problems are described by small JSON documents (the built-in catalog is a
mapping of such documents) holding coefficient formulas as strings in the
variable x, boundary frames, and the spectral interval.  config_from_dict
turns a document into a frozen, validated ProblemConfig in one step, and
load_problem wires that into a SpectralProblem.  Coefficients depend on x
only; lambda enters through the one constant matrix E (the field's
lambda_mat) that each companion-form builder sets beside its lambda-free
table.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import partial
from typing import Optional, Tuple, Union

import numpy as np

from .errors import (
    ConfigError,
    DegenerateCoefficientError,
    ExpressionEvalError,
    ExpressionSyntaxError,
)
from .maslovbox import SpectralProblem
from .multilinear import Frame
from .propagation import (
    CoefficientField,
    eval_companion_higher_order,
    eval_companion_second_order,
)

FUNCTIONS = ("sin", "cos", "exp", "sqrt")

# ---------------------------------------------------------------------------
# Expression AST
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    pass  # the single variable x


@dataclass(frozen=True)
class Neg:
    child: "Expression"


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "Expression"


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Expression"
    right: "Expression"


Expression = Union[Num, Var, Neg, Call, BinOp]

_TOKEN_RE = re.compile(r"\s*(?:(\d+\.\d*|\.\d+|\d+)|([a-zA-Z]+)|([-+*/^()]))")


def _tokenize(text: str):
    tokens = []  # (kind, value, offset)
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            off = len(text) - len(stripped)
            if not stripped:
                break
            raise ExpressionSyntaxError(f"unexpected character {stripped[0]!r}", off)
        number, name, op = m.groups()
        offset = m.start(1) if number else m.start(2) if name else m.start(3)
        if number:
            tokens.append(("num", number, offset))
        elif name:
            tokens.append(("name", name, offset))
        else:
            tokens.append(("op", op, offset))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    """Recursive descent for:

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := unary ('^' factor)?          # '^' right-associative
    unary  := ('-')? atom
    atom   := number | 'x' | func '(' expr ')' | '(' expr ')'
    """

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, expected):
        kind, value, offset = self.peek()
        got = value if kind != "end" else "end of input"
        raise ExpressionSyntaxError(
            f"expected {' or '.join(expected)}, got {got!r}", offset, expected
        )

    def parse(self) -> Expression:
        node = self.expr()
        kind, value, offset = self.peek()
        if kind != "end":
            raise ExpressionSyntaxError(
                f"trailing input {value!r}", offset, ("operator", "end")
            )
        return node

    def expr(self) -> Expression:
        node = self.term()
        while self.peek()[:2] in (("op", "+"), ("op", "-")):
            op = self.advance()[1]
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Expression:
        node = self.factor()
        while self.peek()[:2] in (("op", "*"), ("op", "/")):
            op = self.advance()[1]
            node = BinOp(op, node, self.factor())
        return node

    def factor(self) -> Expression:
        node = self.unary()
        if self.peek()[:2] == ("op", "^"):
            self.advance()
            node = BinOp("^", node, self.factor())
        return node

    def unary(self) -> Expression:
        if self.peek()[:2] == ("op", "-"):
            self.advance()
            return Neg(self.atom())
        return self.atom()

    def atom(self) -> Expression:
        kind, value, offset = self.peek()
        if kind == "num":
            self.advance()
            return Num(float(value))
        if kind == "name":
            if value == "x":
                self.advance()
                return Var()
            if value in FUNCTIONS:
                self.advance()
                if self.peek()[:2] != ("op", "("):
                    self.fail(("'('",))
                self.advance()
                arg = self.expr()
                if self.peek()[:2] != ("op", ")"):
                    self.fail(("')'",))
                self.advance()
                return Call(value, arg)
            raise ExpressionSyntaxError(
                f"unknown name {value!r}", offset, ("x",) + FUNCTIONS
            )
        if kind == "op" and value == "(":
            self.advance()
            node = self.expr()
            if self.peek()[:2] != ("op", ")"):
                self.fail(("')'",))
            self.advance()
            return node
        self.fail(("number", "x", "function", "'('"))


def parse_expression(text: str) -> Expression:
    if not text or not text.strip():
        raise ExpressionSyntaxError("empty expression", 0)
    return _Parser(text).parse()


def eval_expression_array(e: Expression, xs: np.ndarray) -> np.ndarray:
    """Evaluate over an array of x values (any shape, 0-d included)."""
    if isinstance(e, Num):
        return np.full(np.shape(xs), e.value)
    if isinstance(e, Var):
        return np.asarray(xs, dtype=float)
    if isinstance(e, Neg):
        return -eval_expression_array(e.child, xs)
    if isinstance(e, Call):
        v = eval_expression_array(e.arg, xs)
        if e.fn == "sqrt":
            if np.any(v < 0):
                raise ExpressionEvalError("sqrt of negative value")
            return np.sqrt(v)
        with np.errstate(over="ignore", invalid="ignore"):
            out = getattr(np, e.fn)(v)
        if np.any(~np.isfinite(out)):
            raise ExpressionEvalError(f"non-finite value of {e.fn}")
        return out
    left = eval_expression_array(e.left, xs)
    right = eval_expression_array(e.right, xs)
    if e.op == "/":
        if np.any(right == 0):
            raise ExpressionEvalError("division by zero")
        return left / right
    if e.op == "^":
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            out = left ** right
        if np.any(~np.isfinite(out)):
            raise ExpressionEvalError("invalid power")
        return out
    return {"+": np.add, "-": np.subtract, "*": np.multiply}[e.op](left, right)


def eval_expression(e: Expression, x: float) -> float:
    return float(eval_expression_array(e, np.asarray(x, dtype=float)))


def serialize_expression(e: Expression) -> str:
    """Canonical text that re-parses to an equivalent tree."""

    def prec(node):
        if isinstance(node, BinOp):
            return {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}[node.op]
        if isinstance(node, Neg):
            return 3
        return 5

    def render(node, parent_prec, right_side=False):
        p = prec(node)
        if isinstance(node, Num):
            text = repr(node.value)
        elif isinstance(node, Var):
            text = "x"
        elif isinstance(node, Neg):
            text = "-" + render(node.child, p)
        elif isinstance(node, Call):
            text = f"{node.fn}({render(node.arg, 0)})"
        else:
            lp, rp = p, p
            if node.op in ("-", "/"):
                rp = p + 1  # left-associative: parenthesize equal-prec right child
            if node.op == "^":
                lp = p + 1  # right-associative
            text = (
                render(node.left, lp)
                + node.op
                + render(node.right, rp, right_side=True)
            )
        if p < parent_prec or (p == parent_prec and right_side):
            return "(" + text + ")"
        return text

    return render(e, 0)


# ---------------------------------------------------------------------------
# Problem configuration
# ---------------------------------------------------------------------------

_ALLOWED_KEYS = {
    "kind", "n", "l", "m", "alphas", "kappas", "B", "V", "W",
    "P", "Q", "lambda", "x_steps", "lambda_steps",
}
PRESETS = ("dirichlet", "neumann")


@dataclass(frozen=True)
class ProblemConfig:
    """A validated, immutable problem description (config_from_dict gives
    every list as a tuple).  dataclasses.replace makes a changed copy and
    checks the interval, the grid sizes and 1 <= m <= n-1 again (ConfigError).
    """

    kind: str
    n: int
    m: int
    lam: tuple
    alphas: Optional[Tuple[str, ...]] = None
    kappas: Optional[Tuple[float, ...]] = None
    B: Optional[Tuple[float, ...]] = None
    V: Optional[Tuple[Tuple[str, ...], ...]] = None
    W: Optional[Tuple[Tuple[str, ...], ...]] = None
    P: Union[str, tuple] = "neumann"
    Q: Union[str, tuple] = "neumann"
    x_steps: int = 1000
    lambda_steps: int = 600

    def __post_init__(self):
        if not -np.inf < self.lam[0] < self.lam[1] < np.inf:
            raise ConfigError(f"need finite lambda1 < lambda2, got {list(self.lam)}")
        if self.x_steps < 2 or self.lambda_steps < 2:
            raise ConfigError("grid resolutions must be at least 2")
        if not 1 <= self.m <= self.n - 1:
            raise ConfigError(f"m must be in 1..{self.n - 1}")

    def to_dict(self) -> dict:
        out = {"kind": self.kind, "m": self.m, "lambda": list(self.lam),
               "x_steps": self.x_steps, "lambda_steps": self.lambda_steps,
               "P": self.P, "Q": self.Q}
        if self.kind == "higher-order":
            out["n"] = self.n
            out["alphas"] = self.alphas
            out["kappas"] = self.kappas
        else:
            out["l"] = self.n // 2
            out["B"] = self.B
            out["V"] = self.V
            out["W"] = self.W
        return out


def _number(value, what: str) -> float:
    """A finite float from a config value; ConfigError otherwise."""
    try:
        out = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{what} must be a number, got {value!r}") from None
    if not np.isfinite(out):
        raise ConfigError(f"{what} must be finite, got {value!r}")
    return out


def _list(value, what: str) -> list:
    """A list-valued config entry; ConfigError for anything else."""
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{what} must be a list, got {value!r}")
    return list(value)


def _matrix(value, what: str, entry) -> tuple:
    """A matrix-valued config entry, a non-empty list of equal-length rows,
    as a tuple of rows with `entry` applied to every value."""
    rows = [_list(row, f"a row of {what}") for row in _list(value, what)]
    if not rows or not rows[0] or any(len(row) != len(rows[0]) for row in rows):
        raise ConfigError(f"{what} must be a non-empty list of equal-length rows")
    return tuple(tuple(entry(v) for v in row) for row in rows)


def _integer(value, what: str) -> int:
    """An integer from a config value (1000 or 1000.0); ConfigError otherwise."""
    out = _number(value, what)
    if out != int(out):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return int(out)


def config_from_dict(doc: dict) -> ProblemConfig:
    unknown = set(doc) - _ALLOWED_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    kind = doc.get("kind")
    if kind == "general":
        raise ConfigError(
            "kind 'general' is API-only: build a CoefficientField and a "
            "SpectralProblem directly"
        )
    if kind not in ("higher-order", "second-order"):
        raise ConfigError(f"kind must be 'higher-order' or 'second-order', got {kind!r}")
    lam = doc.get("lambda")
    if (not isinstance(lam, (list, tuple))) or len(lam) != 2:
        raise ConfigError("'lambda' must be [lambda1, lambda2]")
    lam = (_number(lam[0], "lambda1"), _number(lam[1], "lambda2"))
    x_steps = _integer(doc.get("x_steps", 1000), "'x_steps'")
    lambda_steps = _integer(doc.get("lambda_steps", 600), "'lambda_steps'")

    if kind == "higher-order":
        n = doc.get("n")
        alphas = doc.get("alphas")
        kappas = doc.get("kappas")
        if n is None or alphas is None or kappas is None:
            raise ConfigError("higher-order configs need 'n', 'alphas', 'kappas'")
        n = _integer(n, "'n'")
        alphas, kappas = _list(alphas, "'alphas'"), _list(kappas, "'kappas'")
        if len(alphas) != n + 1:
            raise ConfigError(f"need {n + 1} alpha expressions, got {len(alphas)}")
        if len(kappas) != n - 1:
            raise ConfigError(f"need {n - 1} kappa values, got {len(kappas)}")
        kappas = tuple(_number(k, "a kappa value") for k in kappas)
        if 0.0 in kappas:
            raise ConfigError("kappa values must be non-zero")
        coefficients = {"alphas": tuple(str(a) for a in alphas), "kappas": kappas}
        P, Q = doc.get("P", "neumann"), doc.get("Q", "dirichlet")
    else:
        l = doc.get("l")
        if l is None:
            raise ConfigError("second-order configs need 'l'")
        l = _integer(l, "'l'")
        B = _list(doc.get("B", [1.0] * l), "'B'")
        V = doc.get("V")
        W = doc.get("W")
        if V is None or W is None:
            raise ConfigError("second-order configs need 'V' and 'W'")
        V, W = _matrix(V, "'V'", str), _matrix(W, "'W'", str)
        for name, M in (("V", V), ("W", W)):
            if len(M) != l or len(M[0]) != l:
                raise ConfigError(f"'{name}' must be an {l}x{l} matrix of expressions")
        if len(B) != l:
            raise ConfigError(f"'B' must list {l} diagonal entries")
        n = 2 * l
        coefficients = {"B": tuple(_number(b, "a 'B' entry") for b in B), "V": V, "W": W}
        P, Q = doc.get("P", "neumann"), doc.get("Q", "neumann")

    # a named preset, or a matrix of numbers
    P, Q = (spec if isinstance(spec, str) else
            _matrix(spec, f"'{key}'", partial(_number, what=f"an entry of '{key}'"))
            for key, spec in (("P", P), ("Q", Q)))
    m = doc.get("m")
    if m is None:
        if not isinstance(P, str):
            m = len(P[0])
        elif kind == "second-order":
            m = n // 2
        else:
            raise ConfigError("'m' is required when P is a named preset")
    return ProblemConfig(kind=kind, n=n, m=_integer(m, "'m'"), lam=lam, P=P, Q=Q,
                         x_steps=x_steps, lambda_steps=lambda_steps, **coefficients)


def load_config_file(path) -> ProblemConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    return config_from_dict(doc)


def preset_frame(name_or_matrix, n: int, cols: int) -> np.ndarray:
    """Resolve a boundary frame: explicit matrix, or 'neumann'/'dirichlet'.

    'neumann' stacks the identity over zeros, 'dirichlet' zeros over the
    identity.  Robin-type spaces are supplied as explicit matrices (see
    robin_frame).
    """
    if isinstance(name_or_matrix, str):
        name = name_or_matrix.lower()
        if name not in PRESETS:
            raise ConfigError(f"unknown frame preset {name_or_matrix!r}")
        out = np.zeros((n, cols))
        if name == "neumann":
            out[:cols, :] = np.eye(cols)
        else:
            out[n - cols:, :] = np.eye(cols)
        return out
    mat = np.asarray(name_or_matrix, dtype=float)
    if mat.shape != (n, cols):
        raise ConfigError(f"frame must be {n}x{cols}, got {mat.shape}")
    return mat


def robin_frame(coupling) -> np.ndarray:
    """Frame (I; Theta) for a Robin-type boundary space."""
    theta = np.asarray(coupling, dtype=float)
    if theta.ndim != 2 or theta.shape[0] != theta.shape[1]:
        raise ConfigError("Robin coupling must be a square matrix")
    return np.vstack([np.eye(theta.shape[0]), theta])


def _higher_order_field(cfg: ProblemConfig) -> CoefficientField:
    n = cfg.n
    trees = [parse_expression(a) for a in cfg.alphas]
    alphas = tuple(partial(eval_expression_array, t) for t in trees)
    lead = alphas[n](np.linspace(0.0, 1.0, 1001))
    if np.min(lead) <= 0:
        raise DegenerateCoefficientError(
            f"alpha_n is not positive on [0,1] (min {np.min(lead):.3g})"
        )
    E = np.zeros((n, n))
    E[n - 1, 0] = 1.0
    return CoefficientField(
        n=n, base_table=partial(eval_companion_higher_order, alphas, cfg.kappas),
        lambda_mat=E, higher_order=(alphas, cfg.kappas),
    )


def _matrix_table(trees, xs) -> np.ndarray:
    """A matrix of expressions evaluated entry-wise: shape xs.shape + (l, l)."""
    return np.stack([
        np.stack([eval_expression_array(t, xs) for t in row], axis=-1)
        for row in trees
    ], axis=-2)


def _second_order_field(cfg: ProblemConfig) -> CoefficientField:
    l = cfg.n // 2
    if np.any(np.asarray(cfg.B) == 0.0):
        raise ConfigError("B must be invertible (no zero diagonal entries)")
    Vtrees = [[parse_expression(v) for v in row] for row in cfg.V]
    Wtrees = [[parse_expression(w) for w in row] for row in cfg.W]
    E = np.zeros((2 * l, 2 * l))
    for k in range(l):
        E[l + k, k] = -1.0
    return CoefficientField(
        n=2 * l,
        base_table=partial(eval_companion_second_order, np.diag(cfg.B),
                           partial(_matrix_table, Wtrees), partial(_matrix_table, Vtrees)),
        lambda_mat=E,
    )


def load_problem(config: ProblemConfig) -> SpectralProblem:
    """Wire a validated config into a runnable spectral problem."""
    if config.kind == "higher-order":
        field = _higher_order_field(config)
    elif config.kind == "second-order":
        field = _second_order_field(config)
    else:
        raise ConfigError(f"cannot load kind {config.kind!r} from a config")
    n, m = config.n, config.m
    return SpectralProblem(
        field=field,
        P=Frame(preset_frame(config.P, n, m)),
        Q=Frame(preset_frame(config.Q, n, n - m)),
        lambda1=config.lam[0],
        lambda2=config.lam[1],
        x_steps=config.x_steps,
        lambda_steps=config.lambda_steps,
    )


_EXAMPLE2 = {
    "kind": "second-order", "l": 2, "B": [1.0, 1.0],
    "V": [["10*sin(10*x)*cos(10*x)", "25*sin(10*x)"], ["x*(1-x)", "10*cos(10*x)"]],
    "W": [["5*x*(1-x)", "0"], ["0", "5*x*(1-x)"]],
    "P": "neumann", "Q": "neumann", "lambda": [-5.0, 1.0],
}
_HARMONIC = {
    "kind": "second-order", "l": 1, "B": [1.0], "V": [["0"]], "W": [["0"]],
    "lambda": [0.0, 50.0], "x_steps": 2000,
}
# The built-in problems, as config documents (default grids unless given).
# example1: third-order scalar operator, mixed derivative boundary
# conditions, eigenvalue hunt on [-1, 0].  example2/example3: 2-component
# second-order systems with Neumann conditions at both ends on [-5, 1];
# example3 couples W and loses interior invariance.  harmonic-*:
# constant-coefficient oscillator with closed-form spectrum.
_CATALOG = {
    "example1": {
        "kind": "higher-order", "n": 3, "m": 1,
        "alphas": [".2*cos(10*x) - .5*cos(x/10)", "2*sin(5*x)", "10", "60"],
        "kappas": [10, 60],
        "P": [[1.0], [0.0], [0.0]], "Q": [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]],
        "lambda": [-1.0, 0.0],
    },
    "example2": _EXAMPLE2,
    "example3": {**_EXAMPLE2,
                 "W": [["5*x*(1-x)", "10*sin(10*x)"], ["10*cos(10*x)", "5*x*(1-x)"]]},
    "harmonic-dirichlet": {**_HARMONIC, "P": "dirichlet", "Q": "dirichlet"},
    "harmonic-neumann": {**_HARMONIC, "P": "neumann", "Q": "neumann"},
}
CATALOG = tuple(_CATALOG)


def builtin_catalog(name: str) -> ProblemConfig:
    """The named built-in problem (see _CATALOG); ConfigError for any other name."""
    if name not in _CATALOG:
        raise ConfigError(f"unknown catalog problem {name!r}; known: {', '.join(CATALOG)}")
    return config_from_dict(_CATALOG[name])
