#!/usr/bin/env python3
"""Lists the public API in src/ that no code path calls.

Takes every CamelCase function, method and type declared outside a
private or protected section of a header under src/, and searches for it
by word in src/, examples/, bench/ and culevo_bench/ (comments and string
literals stripped). A name is reported when its only occurrences are its
own declarations and definitions: any other occurrence, in any of those
files, counts as a use. Tests are not searched, so an API that only tests
call is reported. A use by code that is itself dead still counts; run the
scan again after a deletion to see what that deletion orphaned.

Usage: python3 tools/api_scan.py
Prints one line per name: the name, then the headers that declare it.
Exits 1 when a reported name is not one of TEST_HOOKS, the public names
kept for tests on purpose (ctest runs it as api_scan_test).
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
TEST_HOOKS = {'AllIds', 'Disarm', 'DisarmAll', 'HitCount', 'Infinite',
              'RankedIngredients', 'RequestReloadForTest', 'WorldCuisines'}


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
    return 1 if unexpected else 0


if __name__ == '__main__':
    sys.exit(main())
