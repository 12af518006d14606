from hypothesis import settings

# Property tests draw the same examples on every run, and no example fails
# for taking long on a loaded machine.
settings.register_profile("madelab", deadline=None, derandomize=True, database=None)
settings.load_profile("madelab")
