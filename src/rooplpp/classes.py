"""Class analysis: inheritance resolution, subtyping and object layout.

Resolved field order is own fields first, then inherited ones; offsets are
internal, so the order only has to be deterministic.  Class ids are dense
integers in declaration order starting at 1; id 0 would collide with nil.
"""

from .syntax import ClassError, Record
from . import syntax as ast


def block_words(n):
    """Words in the buddy block that holds n words: the smallest power of
    two that is at least n and at least 2."""
    return max(2, 1 << (n - 1).bit_length())


class ClassInfo(Record):
    """`fields` is ((type, name), ...), own then inherited; `methods` maps
    name to MethodDecl, where an override drops the base method.  The
    layout: an object uses `used` words (class id, reference count, the
    fields) of a block of `alloc_words`; `refs` holds (offset, type class,
    class or element class, None for int[]) of each reference field."""

    __slots__ = ("name", "class_id", "parent", "fields", "methods", "used",
                 "alloc_words", "refs")


class ClassMap:
    """Finite map class name -> resolved fields/methods, plus subtyping;
    `by_id` maps each class id to the same entries."""

    def __init__(self, entries):
        self.entries = entries
        self.by_id = {info.class_id: info for info in entries.values()}

    def __contains__(self, name):
        return name in self.entries

    def __getitem__(self, name):
        try:
            return self.entries[name]
        except KeyError:
            raise ClassError("UnknownClass", "no class named %r"
                             % (name,)) from None

    def subtype_of(self, c1, c2):
        """True iff c1 reaches c2 by zero or more inherits steps."""
        info = self[c1]
        self[c2]
        cur = info
        while cur is not None:
            if cur.name == c2:
                return True
            cur = self.entries[cur.parent] if cur.parent else None
        return False


def array_type_of(ty):
    """Element type of an array type."""
    if isinstance(ty, ast.IntArrayType):
        return ast.INT
    if isinstance(ty, ast.ClassArrayType):
        return ast.ClassRef(ty.name)
    raise ClassError("NotAnArray", "%s is not an array type" % ty)


def _field_spans(cls):
    """The span of each field of `cls`, its own if the parser gave one."""
    return cls.field_spans or (cls.span,) * len(cls.fields)


def build_class_map(program):
    decls = {}  # in declaration order
    for cls in program.classes:
        if cls.name in decls:
            raise ClassError("DuplicateClass",
                             "class %s declared twice" % cls.name, cls.span)
        decls[cls.name] = cls

    for cls in program.classes:
        if cls.parent is not None and cls.parent not in decls:
            raise ClassError("UnknownParent",
                             "class %s inherits unknown %s"
                             % (cls.name, cls.parent), cls.span)
        seen = set()
        for m in cls.methods:
            if m.name in seen:
                raise ClassError("DuplicateMethod",
                                 "method %s declared twice in %s"
                                 % (m.name, cls.name), m.span)
            seen.add(m.name)
            pnames = [p for _, p in m.params]
            if len(pnames) != len(set(pnames)):
                raise ClassError("DuplicateMethod",
                                 "duplicate parameter name in %s.%s"
                                 % (cls.name, m.name), m.span)

    # cycle detection over the inherits graph
    for name in decls:
        slow = name
        seen = set()
        while decls[slow].parent is not None:
            if slow in seen:
                raise ClassError("CycleError",
                                 "inheritance cycle through %s" % name,
                                 decls[name].span)
            seen.add(slow)
            slow = decls[slow].parent

    resolved = {}

    def resolve(name):
        if name in resolved:
            return resolved[name]
        cls = decls[name]
        fields = list(cls.fields)
        own_spans = {}
        for (_, fname), span in zip(fields, _field_spans(cls)):
            if fname in own_spans:
                raise ClassError("DuplicateField",
                                 "field %s declared twice in %s"
                                 % (fname, name), span)
            own_spans[fname] = span
        methods = {m.name: m for m in cls.methods}
        if cls.parent is not None:
            parent = resolve(cls.parent)
            for ty, fname in parent.fields:
                if fname in own_spans:
                    # shadowing an inherited field would make the merged
                    # field set ambiguous; reject outright
                    raise ClassError(
                        "DuplicateField",
                        "field %s in %s shadows %s.%s"
                        % (fname, name, cls.parent, fname), own_spans[fname])
                fields = fields + [(ty, fname)]
            for mname, mdecl in parent.methods.items():
                if mname not in methods:
                    methods[mname] = mdecl
        used = len(fields) + 2
        refs = tuple((i, type(ty), getattr(ty, "name", None)) for i, (ty, _)
                     in enumerate(fields, 2) if type(ty) is not ast.IntType)
        info = ClassInfo(name, list(decls).index(name) + 1, cls.parent,
                         tuple(fields), methods, used, block_words(used), refs)
        resolved[name] = info
        return info

    cmap = ClassMap({name: resolve(name) for name in decls})

    # overrides must keep the base signature or dispatch could change arity
    for name, cls in decls.items():
        if cls.parent is None:
            continue
        parent = cmap[cls.parent]
        for m in cls.methods:
            base = parent.methods.get(m.name)
            if base is not None and tuple(ty for ty, _ in base.params) != \
                    tuple(ty for ty, _ in m.params):
                raise ClassError(
                    "BadOverride",
                    "%s.%s overrides %s.%s with a different signature"
                    % (name, m.name, cls.parent, m.name), m.span)

    # class reference fields/params must resolve
    def check_type(ty, where, span):
        name = getattr(ty, "name", None)
        if name is not None and name not in cmap:
            kind = "array " if isinstance(ty, ast.ClassArrayType) else ""
            raise ClassError("UnknownClass",
                             "%s has unknown class %stype %s"
                             % (where, kind, ty), span)

    for cls in program.classes:
        for (ty, fname), span in zip(cls.fields, _field_spans(cls)):
            check_type(ty, "field %s.%s" % (cls.name, fname), span)
        for m in cls.methods:
            for ty, pname in m.params:
                check_type(ty, "parameter %s of %s.%s"
                           % (pname, cls.name, m.name), m.span)

    return cmap


def nullary_mains(program):
    """(class name, method) of each `main` without parameters, in order."""
    return [(cls.name, m) for cls in program.classes for m in cls.methods
            if m.name == "main" and not m.params]


def main_class_of(program):
    """Name of the class declaring the nullary main method."""
    for name, _ in nullary_mains(program):
        return name
    raise ValueError("program has no nullary main method")
