#!/usr/bin/env python3
"""Lists the public API in src/ that no code path calls, and the options
that no code path sets.

Names: takes every CamelCase function, method and type declared outside a
private or protected section of a header under src/, and searches for it
by word in src/, examples/, bench/ and culevo_bench/ (comments and string
literals stripped). A name is reported when its only occurrences are its
own declarations and definitions: any other occurrence, in any of those
files, counts as a use. Tests are not searched, so an API that only tests
call is reported. A use by code that is itself dead still counts; run the
scan again after a deletion to see what that deletion orphaned.

Options: takes every data member of a struct in a src/ header whose name
ends in Options, Config, Params or Constraints, and reports it when no
file of those directories but its own header sets it: assigns it or
one of its fields (`.m =`, `->m =`, `.m.field =`, or a designated
initializer) or calls push_back, assign or insert on it.
Members are matched by name, so a name two structs share counts as set
when either one is set.

Usage: python3 tools/api_scan.py
Prints one line per name (the name, then the headers that declare it) and
one per option (Struct::member, then its header). Exits 1 when a reported
name is not one of TEST_HOOKS, or a reported option not one of
TEST_SEAMS: the public names and the option values kept for tests on
purpose (ctest runs it as api_scan_test). Exits 1 too when an entry of
either list is no longer reported, because it was deleted or production
code now uses it, so the lists name exactly what the scan finds.
"""
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
FILES = [p for d in ('src', 'examples', 'bench', 'culevo_bench')
         for p in sorted((ROOT / d).rglob('*'))
         if p.suffix in ('.h', '.cc', '.cpp')]
NAME = re.compile(r'\b[A-Z]\w*[a-z]\w*\b')
NOT_A_TYPE = {'return', 'else', 'new', 'delete', 'case', 'throw', 'co_return'}
TEST_HOOKS = {'AllIds', 'Disarm', 'DisarmAll', 'HitCount',
              'RankedIngredients', 'RequestReloadForTest', 'WorldCuisines'}
# Tests set these to shorten timings, to keep SIGHUP away from fake child
# processes, or to vary the support.
TEST_SEAMS = {'CombinationConfig::min_relative_support',
              'SimulationConfig::mining',
              'FabricOptions::retry_backoff_ms',
              'FabricOptions::retry_backoff_cap_ms', 'FabricOptions::poll_ms',
              'SupervisorOptions::poll_ms', 'SupervisorOptions::forward_reload'}
OPTIONS = re.compile(
    r'\bstruct\s+(\w+(?:Options|Config|Params|Constraints))\s*\{')
NOT_A_MEMBER = re.compile(
    r'^(static|using|friend|typedef|enum|struct|class|template)\b')


def strip(text):
    text = re.sub(r'/\*.*?\*/', ' ', text, flags=re.S)
    text = re.sub(r'//[^\n]*', '', text)
    return re.sub(r'"(?:\\.|[^"\\\n])*"', '""', text)


def public_only(text):
    """`text` without its private: and protected: sections."""
    out, depth, hidden_at = [], 0, None
    for tok in re.split(r'(\{|\}|\bprivate:|\bprotected:|\bpublic:)', text):
        if tok == '{':
            depth += 1
        elif tok == '}':
            depth -= 1
            if hidden_at is not None and depth < hidden_at:
                hidden_at = None
        elif tok in ('private:', 'protected:'):
            hidden_at = depth
            continue
        elif tok == 'public:':
            if hidden_at == depth:
                hidden_at = None
            continue
        if hidden_at is None:
            out.append(tok)
    return ''.join(out)


def is_declaration(text, match):
    """True when `match` names what it declares or defines."""
    before = text[:match.start()]
    if re.search(r'\b(class|struct|enum(\s+class)?|using)\s+$', before):
        return True
    if not re.match(r'\s*\(', text[match.end():]):
        return False
    qualified = re.search(r'(\w+)::$', before)
    if qualified and qualified.group(1) == match.group(0):
        return True  # Foo::Foo(
    if before.endswith('~'):
        return True
    # A return type ends right before the name (and its qualifiers): a
    # word that is not a keyword, a `>` (not `->`), or a `*`/`&` glued to
    # either.
    head = re.sub(r'(\w+::)*$', '', before).rstrip()
    last = re.search(r'(\w+|(?<!-)>)([*&]?)$', head)
    return bool(last) and last.group(1) not in NOT_A_TYPE


def statements(body):
    """The top-level statements of a struct body, without function bodies
    and access specifiers."""
    out, depth, start = [], 0, 0
    for i, c in enumerate(body):
        if c in '({[':
            depth += 1
        elif c in ')}]':
            depth -= 1
            if c == '}' and depth == 0 and '=' not in body[start:i] and \
                    '(' in body[start:i]:
                start = i + 1  # an inline function body ends its statement
        elif c == ';' and depth == 0:
            out.append(body[start:i])
            start = i + 1
    return [re.sub(r'\b(public|private|protected):', '', st).strip()
            for st in out]


def option_members(text):
    """(struct, member) for each data member of each options struct."""
    for m in OPTIONS.finditer(text):
        depth, i = 1, m.end()
        while depth:
            depth += {'{': 1, '}': -1}.get(text[i], 0)
            i += 1
        for st in statements(text[m.end():i - 1]):
            declarator = re.split(r'=|\{', st, maxsplit=1)[0].strip()
            if NOT_A_MEMBER.match(st) or declarator.endswith(')'):
                continue
            name = re.search(r'(\w+)(\s*\[[^]]*\])?$', declarator)
            if name:
                yield m.group(1), name.group(1)


def unset_options(text):
    """Struct::member -> header, for each option no other file sets."""
    unset = {}
    for header in FILES:
        if header.suffix != '.h' or header.parts[len(ROOT.parts)] != 'src':
            continue
        for struct, member in option_members(text[header]):
            sets = re.compile(r'(\.|->)%s(\.\w+)?(\s*=(?!=)|\.(push_back|'
                              r'assign|insert)\()' % member)
            if not any(p != header and sets.search(text[p]) for p in FILES):
                unset['%s::%s' % (struct, member)] = header
    return unset


def main():
    text = {p: strip(p.read_text()) for p in FILES}
    declared = {}
    for header in FILES:
        if header.suffix != '.h' or header.parts[len(ROOT.parts)] != 'src':
            continue
        public = public_only(text[header])
        for m in NAME.finditer(public):
            if is_declaration(public, m):
                declared.setdefault(m.group(0), set()).add(header)
    # Every occurrence of a declared name is a NAME match, so one pass
    # over each file finds them all.
    occurrences = {}
    for p in FILES:
        for m in NAME.finditer(text[p]):
            occurrences.setdefault(m.group(0), []).append((p, m))
    unused = []
    for name, headers in sorted(declared.items()):
        own = headers | {h.with_suffix('.cc') for h in headers}
        if not any(p not in own or not is_declaration(text[p], m)
                   for p, m in occurrences.get(name, [])):
            unused.append(name)
            print(name, ' '.join(sorted(str(h.relative_to(ROOT))
                                        for h in headers)))
    unexpected = [name for name in unused if name not in TEST_HOOKS]
    if unexpected:
        print('public API that only tests use, and no test hook:',
              ' '.join(unexpected), file=sys.stderr)
    unset = unset_options(text)
    for option, header in sorted(unset.items()):
        print(option, header.relative_to(ROOT))
    unseamed = [option for option in sorted(unset) if option not in TEST_SEAMS]
    if unseamed:
        print('options that no code sets, and no test seam:',
              ' '.join(unseamed), file=sys.stderr)
    stale = sorted((TEST_HOOKS - set(unused)) | (TEST_SEAMS - set(unset)))
    if stale:
        print('test hooks and seams that the scan no longer reports:',
              ' '.join(stale), file=sys.stderr)
    return 1 if unexpected or unseamed or stale else 0


if __name__ == '__main__':
    sys.exit(main())
