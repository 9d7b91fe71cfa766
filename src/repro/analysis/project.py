"""The project model: parsed source tree plus import graph.

kalis-lint rules do not read files themselves — they receive a
:class:`Project`, which holds every parsed module, a module-level import
graph, and cross-module constant resolution (so a rule seeing
``bus.publish(ALERT_TOPIC)`` can learn the topic string even though the
constant lives in another file).

Parsing happens once per run; every rule shares the same trees, and
the whole-program layers built from them (the call graph and the flow,
state and proc views) are memoized on the project by :meth:`Project.layer`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
    TypeVar,
)

T = TypeVar("T")


@dataclass
class SourceFile:
    """One parsed Python source file."""

    path: Path
    relpath: str
    module: str
    tree: ast.Module
    text: str
    #: True for package ``__init__.py`` files — relative imports resolve
    #: against the package itself there, not against its parent.
    is_package: bool = False

    def in_package(self, package: str) -> bool:
        """Is this module inside ``package`` (or the package itself)?"""
        return self.module == package or self.module.startswith(package + ".")


@dataclass
class SyntaxFailure:
    """A file the parser rejected; reported as a finding by the engine."""

    path: Path
    relpath: str
    line: int
    message: str


@dataclass
class Project:
    """Everything the rules may inspect."""

    root: Path
    files: List[SourceFile] = field(default_factory=list)
    failures: List[SyntaxFailure] = field(default_factory=list)
    by_module: Dict[str, SourceFile] = field(default_factory=dict)
    #: module -> project-internal modules it imports.
    import_graph: Dict[str, Set[str]] = field(default_factory=dict)
    #: (module, local name) -> (defining module, original name).
    imported_names: Dict[Tuple[str, str], Tuple[str, str]] = field(
        default_factory=dict
    )
    #: (module, local name) -> project-internal module the name is bound
    #: to (``import repro.core.alerts as alerts`` / ``import repro.core``
    #: / ``from repro.core import alerts``), for dotted-constant lookup.
    module_aliases: Dict[Tuple[str, str], str] = field(default_factory=dict)
    #: (module, name) -> module-level string constant.
    str_constants: Dict[Tuple[str, str], str] = field(default_factory=dict)
    #: (module, name) -> module-level tuple/list of string constants.
    str_tuple_constants: Dict[Tuple[str, str], Tuple[str, ...]] = field(
        default_factory=dict
    )
    #: (module, name) -> (value, line) of a module-level int constant.
    int_constants: Dict[Tuple[str, str], Tuple[int, int]] = field(
        default_factory=dict
    )
    #: name -> whole-program layer built from this project (:meth:`layer`).
    layers: Dict[str, object] = field(
        default_factory=dict, init=False, repr=False
    )

    # -- loading ---------------------------------------------------------------

    @classmethod
    def load(
        cls,
        paths: Iterable[Path],
        root: Optional[Path] = None,
        cache=None,
    ) -> "Project":
        """Parse every ``.py`` file under the given paths.

        With a :class:`~repro.analysis.cache.LintCache`, parse trees of
        unchanged files are unpickled from disk instead of re-parsed.
        """
        resolved_paths = [Path(p).resolve() for p in paths]
        project_root = (root or _find_root(resolved_paths)).resolve()
        project = cls(root=project_root)
        seen: Set[Path] = set()
        for path in resolved_paths:
            for file_path in sorted(_python_files(path)):
                if file_path in seen:
                    continue
                seen.add(file_path)
                project._load_file(file_path, cache)
        for source in project.files:
            project._index_module(source)
        return project

    def _load_file(self, file_path: Path, cache=None) -> None:
        relpath = _relative(file_path, self.root)
        text = file_path.read_text(encoding="utf-8")
        tree = cache.get_ast(relpath, text) if cache is not None else None
        if tree is None:
            try:
                tree = ast.parse(text, filename=str(file_path))
            except SyntaxError as error:
                self.failures.append(
                    SyntaxFailure(
                        path=file_path,
                        relpath=relpath,
                        line=error.lineno or 0,
                        message=f"syntax error: {error.msg}",
                    )
                )
                return
            if cache is not None:
                cache.put_ast(relpath, text, tree)
        module = _module_name(file_path)
        source = SourceFile(
            path=file_path,
            relpath=relpath,
            module=module,
            tree=tree,
            text=text,
            is_package=file_path.name == "__init__.py",
        )
        self.files.append(source)
        self.by_module[module] = source

    # -- indexing --------------------------------------------------------------

    def _index_module(self, source: SourceFile) -> None:
        imports = self.import_graph.setdefault(source.module, set())
        for statement in source.tree.body:
            if isinstance(statement, ast.Import):
                for alias in statement.names:
                    if alias.name in self.by_module:
                        imports.add(alias.name)
                    if alias.asname is not None:
                        # ``import repro.core.alerts as alerts`` binds the
                        # full dotted module to the alias.
                        self.module_aliases[(source.module, alias.asname)] = (
                            alias.name
                        )
                    else:
                        # ``import repro.core.alerts`` binds only the head
                        # segment (``repro``) in the importing namespace.
                        head = alias.name.split(".", 1)[0]
                        self.module_aliases[(source.module, head)] = head
            elif isinstance(statement, ast.ImportFrom):
                origin = self._absolute_import(source, statement)
                if origin is None:
                    continue
                if origin in self.by_module:
                    imports.add(origin)
                for alias in statement.names:
                    local = alias.asname or alias.name
                    submodule = f"{origin}.{alias.name}"
                    if submodule in self.by_module:
                        # ``from pkg import mod`` pulls in a module.
                        imports.add(submodule)
                        self.module_aliases[(source.module, local)] = submodule
                    self.imported_names[(source.module, local)] = (
                        origin,
                        alias.name,
                    )
            elif isinstance(statement, (ast.Assign, ast.AnnAssign)):
                self._index_constant(source.module, statement)

    def _index_constant(self, module: str, statement: ast.stmt) -> None:
        if isinstance(statement, ast.Assign):
            targets = statement.targets
            value = statement.value
        else:
            targets = [statement.target]  # type: ignore[list-item]
            value = statement.value  # type: ignore[assignment]
        if value is None:
            return
        names = [t.id for t in targets if isinstance(t, ast.Name)]
        if not names:
            return
        if isinstance(value, ast.Constant) and isinstance(value.value, str):
            for name in names:
                self.str_constants[(module, name)] = value.value
        elif isinstance(value, ast.Constant) and type(value.value) is int:
            for name in names:
                self.int_constants[(module, name)] = (
                    value.value,
                    statement.lineno,
                )
        elif isinstance(value, (ast.Tuple, ast.List)):
            elements = []
            for element in value.elts:
                if isinstance(element, ast.Constant) and isinstance(
                    element.value, str
                ):
                    elements.append(element.value)
                else:
                    return
            for name in names:
                self.str_tuple_constants[(module, name)] = tuple(elements)

    @staticmethod
    def _absolute_import(source: SourceFile, node: ast.ImportFrom) -> Optional[str]:
        if node.level == 0:
            return node.module
        # Relative import: level 1 means "this file's package" — for a
        # plain module that is the dotted path minus the module's own
        # name, for a package ``__init__.py`` it is the package itself.
        # Each further level strips one more package segment.
        parts = source.module.split(".")
        if not source.is_package:
            parts = parts[:-1]
        strip = node.level - 1
        if strip > len(parts):
            return None
        base = parts[: len(parts) - strip]
        if node.module:
            base.append(node.module)
        return ".".join(base) if base else None

    # -- queries ---------------------------------------------------------------

    def layer(self, name: str, build: Callable[["Project"], T]) -> T:
        """The named whole-program layer, built by ``build(self)`` once."""
        if name not in self.layers:
            self.layers[name] = build(self)
        return self.layers[name]  # type: ignore[return-value]

    def _resolve(
        self, table: Dict[Tuple[str, str], T], module: str, name: str
    ) -> Optional[T]:
        """A name's module-level constant in ``table``, following imports."""
        for _ in range(9):
            value = table.get((module, name))
            if value is not None:
                return value
            link = self.imported_names.get((module, name))
            if link is None:
                return None
            module, name = link
        return None

    def resolve_str(self, module: str, name: str) -> Optional[str]:
        """A name's module-level string-constant value, following imports."""
        return self._resolve(self.str_constants, module, name)

    def resolve_str_tuple(
        self, module: str, name: str
    ) -> Optional[Tuple[str, ...]]:
        """A name's tuple-of-strings constant value, following imports."""
        return self._resolve(self.str_tuple_constants, module, name)

    def resolve_int(self, module: str, name: str) -> Optional[int]:
        """A name's module-level int-constant value, following imports."""
        entry = self._resolve(self.int_constants, module, name)
        return entry[0] if entry is not None else None

    def resolve_module(self, module: str, name: str) -> Optional[str]:
        """The project-internal module a local name is bound to, if any."""
        return self.module_aliases.get((module, name))

    def resolve_str_chain(
        self, module: str, chain: List[str]
    ) -> Optional[str]:
        """A dotted name's string-constant value (``alias.CONST``,
        ``pkg.sub.CONST``), following module aliases segment by segment."""
        if not chain:
            return None
        if len(chain) == 1:
            return self.resolve_str(module, chain[0])
        target = self.module_aliases.get((module, chain[0]))
        if target is None:
            return None
        # Walk intermediate attribute segments as submodules
        # (``repro.core.alerts.ALERT_TOPIC`` after ``import repro.core``).
        for segment in chain[1:-1]:
            candidate = f"{target}.{segment}"
            if candidate in self.by_module:
                target = candidate
            else:
                return None
        return self.resolve_str(target, chain[-1])

    def imports_of(self, module: str) -> Set[str]:
        """Project-internal modules imported by ``module``."""
        return set(self.import_graph.get(module, ()))

    def importers_of(self, module: str) -> Set[str]:
        """Project-internal modules that import ``module``."""
        return {
            importer
            for importer, imported in self.import_graph.items()
            if module in imported
        }


def _python_files(path: Path):
    if path.is_file():
        if path.suffix == ".py":
            yield path
        return
    for candidate in path.rglob("*.py"):
        if any(
            part.startswith(".") or part == "__pycache__"
            for part in candidate.relative_to(path).parts
        ):
            continue
        yield candidate


def _module_name(file_path: Path) -> str:
    """Dotted module path, walking up while ``__init__.py`` is present."""
    parts = [file_path.stem] if file_path.stem != "__init__" else []
    current = file_path.parent
    while (current / "__init__.py").exists():
        parts.append(current.name)
        parent = current.parent
        if parent == current:
            break
        current = parent
    parts.reverse()
    return ".".join(parts) if parts else file_path.stem


def _relative(file_path: Path, root: Path) -> str:
    try:
        return file_path.relative_to(root).as_posix()
    except ValueError:
        return file_path.as_posix()


def _find_root(paths: List[Path]) -> Path:
    """Nearest ancestor of the first path containing ``pyproject.toml``."""
    if not paths:
        return Path.cwd()
    start = paths[0] if paths[0].is_dir() else paths[0].parent
    current = start
    while True:
        if (current / "pyproject.toml").exists() or (current / ".git").exists():
            return current
        if current.parent == current:
            return start
        current = current.parent
