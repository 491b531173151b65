"""R005 pass direction: ordered iteration, membership-only sets."""


def pick_class(classes):
    weights = sorted({w for _, w in classes})
    for w in weights:  # clean: sorted materializes a list
        return w


def dedupe(a, b, extras):
    touched = dict.fromkeys((a, b))  # clean: insertion-ordered dedupe
    touched.update(dict.fromkeys(extras))
    return list(touched)


def filter_members(items, keep):
    keep_set = set(keep)  # clean: membership tests only, never iterated
    return [x for x in items if x in keep_set]


def first_key(mapping):
    names = mapping.keys()
    for n in names:  # clean: a dict keys view iterates in insertion order
        return n
